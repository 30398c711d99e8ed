//! Subcommand implementations.

use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use spade_bench::model::{CostModel, TrainingRow};
use spade_bench::parallel::{self, Job, JobOutput, ParallelRunner};
use spade_bench::service;
use spade_bench::suite::Workload;
use spade_core::advisor::PlanRanker;
use spade_core::{
    advisor, BarrierPolicy, CMatrixPolicy, ExecutionPlan, JsonValue, PlanSearchSpace, Primitive,
    RMatrixPolicy, RunReport, SystemConfig, TelemetrySeries,
};
use spade_matrix::analysis::{MatrixFeatures, MatrixStats};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::{mm, Coo};
use spade_sim::Cycle;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  spade-cli info   [--scale tiny|small|default|large]
  spade-cli run    --benchmark <name> [--kernel spmm|sddmm] [--k 32]
                   [--pes 56] [--scale tiny|small|default|large]
                   [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
                   [--barriers] [--format json|text] [--telemetry <window>]
                   [--deadline-cycles N]
  spade-cli trace  <name> [--kernel spmm|sddmm] [--k 32] [--pes 56]
                   [--scale ...] [--rp N] [--cp N|all] [--rmatrix ...]
                   [--barriers] [--window 256] [--out <file.trace.json>]
  spade-cli advise --benchmark <name> [--k 32] [--pes 56] [--scale ...]
                   [--fast|--exact] [--model FILE] [--top-n 5] [--exhaustive]
                   [--format json|text]
  spade-cli search --benchmark <name> [--k 32] [--pes 56] [--scale ...] [--full]
                   [--format json|text] [--telemetry <window>]
                   [--deadline-cycles N]
  spade-cli mm     --file <matrix.mtx> [--k 32] [--pes 56] [--format json|text]
  spade-cli serve  [--addr 127.0.0.1:7700] [--cache-dir DIR] [--workers N]
                   [--queue 32] [--max-connections 32] [--deadline-cycles N]
                   [--read-timeout-ms 500] [--log-json] [--model FILE]
  spade-cli client --addr <host:port> --request '<json>'
  spade-cli client ping|status|metrics|shutdown --addr <host:port>
                   [--format json|text] [--prom (metrics only)]
  spade-cli client run|search|trace --addr <host:port> --benchmark <name>
                   [job flags as above] [--no-cache] [--format json|text]
                   [--window 256 --out <file.trace.json> (trace only)]
  spade-cli client query --addr <host:port> [--benchmark <name>]
                   [--kernel spmm|sddmm] [--kind run|search|trace] [--k N]
                   [--pes N] [--min-cycles N] [--max-cycles N] [--limit N]
                   [--format json|text]
  spade-cli client batch --addr <host:port> --benchmarks a,b,c
                   [--kernels spmm,sddmm] [--k 32,128] [--pes 56,112]
                   [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
                   [--barriers] [--scale ...] [--deadline-cycles N]
                   [--no-cache] [--format json|text]
  spade-cli client agg --addr <host:port> --group-by benchmark|kernel|pes
                   [query filters as above] [--format json|text]
  spade-cli client best-plans --addr <host:port> [query filters as above]
                   [--format json|text]
  spade-cli bench-perf [--scale tiny|small|default|large] [--k 32] [--pes 56]
                   [--gate-speedup X] [--out BENCH_sim.json]
  spade-cli client advise --addr <host:port> --benchmark <name> [--k 32]
                   [--pes 56] [--scale ...] [--format json|text]
  spade-cli dataset export --cache-dir DIR [--out FILE]
  spade-cli model train --dataset FILE [--scale tiny|small|default|large]
                   [--out spade.model] [--report FILE]
  spade-cli bench-advise [--scale ...] [--k 32] [--pes 56]
                   [--out BENCH_sim.json] [--model-out FILE] [--report-out FILE]
                   [--gate-advise-speedup X] [--gate-advise-quality X]

benchmarks: asi liv ork pap del kro myc pac roa ser";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags or
/// failed runs.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "info" => info(rest),
        "run" => run(rest),
        "trace" => trace_cmd(rest),
        "advise" => advise_cmd(rest),
        "search" => search(rest),
        "mm" => run_mm(rest),
        "serve" => serve(rest),
        "client" => client(rest),
        "bench-perf" => bench_perf(rest),
        "bench-advise" => bench_advise(rest),
        "dataset" => dataset(rest),
        "model" => model_cmd(rest),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn parse_scale(args: &Args) -> Result<Scale, String> {
    match args.get("scale").unwrap_or("tiny") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        other => Err(format!("--scale: unknown scale '{other}'")),
    }
}

fn lookup_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.short_name().eq_ignore_ascii_case(name))
        .ok_or(format!("unknown benchmark '{name}'"))
}

fn parse_benchmark(args: &Args) -> Result<Benchmark, String> {
    lookup_benchmark(args.get("benchmark").ok_or("--benchmark is required")?)
}

/// Whether machine-readable output was requested: `--format json|text`,
/// with the legacy `--json` switch as an alias for `--format json`.
fn parse_format(args: &Args) -> Result<bool, String> {
    match args.get("format") {
        None => Ok(args.has("json")),
        Some("json") => Ok(true),
        Some("text") => Ok(false),
        Some(other) => Err(format!("--format: unknown format '{other}' (json|text)")),
    }
}

/// Parses `--telemetry <window>`, rejecting the zero window the simulator
/// would refuse anyway.
fn parse_telemetry(args: &Args) -> Result<Option<Cycle>, String> {
    match args.get("telemetry") {
        None => Ok(None),
        Some(v) => {
            let w: Cycle = v
                .parse()
                .map_err(|_| format!("--telemetry: cannot parse '{v}'"))?;
            if w == 0 {
                return Err("--telemetry: window must be at least one cycle".into());
            }
            Ok(Some(w))
        }
    }
}

/// Parses `--deadline-cycles <n>`: a hard ceiling on simulated cycles,
/// riding the watchdog's `max_cycles` — a run past the deadline fails
/// with a structured error instead of running forever.
fn parse_deadline(args: &Args) -> Result<Option<Cycle>, String> {
    match args.get("deadline-cycles") {
        None => Ok(None),
        Some(v) => {
            let d: Cycle = v
                .parse()
                .map_err(|_| format!("--deadline-cycles: cannot parse '{v}'"))?;
            if d == 0 {
                return Err("--deadline-cycles: need at least one cycle".into());
            }
            Ok(Some(d))
        }
    }
}

fn parse_system(args: &Args) -> Result<SystemConfig, String> {
    let pes: usize = args.get_parsed("pes", 56)?;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("--pes must be a positive multiple of 4".into());
    }
    Ok(SystemConfig::scaled(pes))
}

fn info(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scale"], &[])?;
    let scale = parse_scale(&args)?;
    println!(
        "{:<6} {:<24} {:>8} {:>9} {:>8} {:>7}  RU",
        "name", "domain", "rows", "nnz", "avg-deg", "density"
    );
    for b in Benchmark::ALL {
        let m = b.generate(scale);
        let s = MatrixStats::compute(&m);
        println!(
            "{:<6} {:<24} {:>8} {:>9} {:>8.1} {:>7.0e}  {}",
            b.short_name(),
            b.domain(),
            s.num_rows,
            s.nnz,
            s.avg_degree,
            s.density,
            s.classify_ru()
        );
    }
    Ok(())
}

fn parse_plan(args: &Args, a: &Coo) -> Result<ExecutionPlan, String> {
    let mut plan = ExecutionPlan::spmm_base(a).map_err(|e| e.to_string())?;
    let mut rp = plan.tiling.row_panel_size;
    let mut cp = plan.tiling.col_panel_size;
    if let Some(v) = args.get("rp") {
        rp = v.parse().map_err(|_| "--rp: bad number")?;
    }
    if let Some(v) = args.get("cp") {
        cp = if v == "all" {
            a.num_cols().max(1)
        } else {
            v.parse().map_err(|_| "--cp: bad number")?
        };
    }
    // Re-validate through the constructor so a zero panel size is a flag
    // error here, not a failure inside the simulator.
    plan.tiling = spade_matrix::TilingConfig::new(rp, cp).map_err(|e| e.to_string())?;
    plan.r_policy = match args.get("rmatrix").unwrap_or("cache") {
        "cache" => RMatrixPolicy::Cache,
        "bypass" => RMatrixPolicy::Bypass,
        "victim" => RMatrixPolicy::BypassVictim,
        other => return Err(format!("--rmatrix: unknown policy '{other}'")),
    };
    plan.c_policy = CMatrixPolicy::Cache;
    if args.has("barriers") {
        plan.barriers = BarrierPolicy::per_column_panel();
    }
    Ok(plan)
}

struct RunSummary<'a> {
    benchmark: &'a str,
    kernel: String,
    k: usize,
    pes: usize,
    plan: &'a ExecutionPlan,
    report: &'a RunReport,
    telemetry: Option<&'a TelemetrySeries>,
}

impl RunSummary<'_> {
    /// The run as one JSON document (hand-rolled writer — the workspace is
    /// dependency-free): context, plan, the full report, and the telemetry
    /// series when sampling was on.
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("benchmark", JsonValue::from(self.benchmark)),
            ("kernel", self.kernel.as_str().into()),
            ("k", self.k.into()),
            ("pes", self.pes.into()),
            ("plan", service::plan_json(self.plan)),
            ("report", self.report.to_json()),
            (
                "sim_cycles_per_host_sec",
                self.report.sim_cycles_per_host_sec().into(),
            ),
        ];
        if let Some(series) = self.telemetry {
            fields.push(("telemetry", series.to_json()));
        }
        JsonValue::object(fields)
    }
}

/// Runs one validated simulation with optional observability, routing
/// through the bench workload so the gold kernel is computed once and the
/// run checks against the shared cached result.
#[allow(clippy::too_many_arguments)]
fn execute_observed(
    system_config: &SystemConfig,
    a: &Coo,
    name: &str,
    k: usize,
    kernel: Primitive,
    plan: &ExecutionPlan,
    telemetry: Option<Cycle>,
    trace: bool,
    deadline: Option<Cycle>,
) -> Result<JobOutput, String> {
    let w = Workload::from_matrix(name.to_string(), a.clone(), k);
    Job::new(
        &Arc::new(w),
        &Arc::new(system_config.clone()),
        kernel,
        *plan,
    )
    .with_telemetry(telemetry)
    .with_trace(trace)
    .with_deadline_cycles(deadline)
    .try_execute_full()
    .map_err(|e| e.to_string())
}

fn execute(
    system_config: &SystemConfig,
    a: &Coo,
    name: &str,
    k: usize,
    kernel: Primitive,
    plan: &ExecutionPlan,
) -> Result<RunReport, String> {
    execute_observed(system_config, a, name, k, kernel, plan, None, false, None).map(|o| o.report)
}

fn print_report(report: &RunReport, json: bool, ctx: RunSummary<'_>) -> Result<(), String> {
    if json {
        println!("{}", ctx.to_json().render());
    } else {
        println!("cycles            : {}", report.cycles);
        println!("time              : {:.1} µs", report.time_ns / 1e3);
        println!("vOps              : {}", report.total_vops);
        println!("DRAM accesses     : {}", report.dram_accesses);
        println!("LLC accesses      : {}", report.llc_accesses);
        println!("requests/cycle    : {:.2}", report.requests_per_cycle);
        println!("DRAM bandwidth    : {:.1} GB/s", report.achieved_gbps);
        println!(
            "termination cost  : {:.2}%",
            report.termination_fraction() * 100.0
        );
        println!(
            "host wall clock   : {:.1} ms ({:.1} Mcycle/s simulated)",
            report.host_wall_ns / 1e6,
            report.sim_cycles_per_host_sec() / 1e6
        );
        if let Some(series) = ctx.telemetry {
            println!(
                "telemetry         : {} windows × {} cycles, mean {:.2} req/cycle, peak {:.2}",
                series.samples.len(),
                series.window,
                series.mean_requests_per_cycle(),
                series.peak_requests_per_cycle()
            );
        }
    }
    Ok(())
}

/// Parses `--k`, rejecting values the simulator cannot run (K must fill
/// whole cache lines) before any simulation work starts.
fn parse_k(args: &Args) -> Result<usize, String> {
    let k: usize = args.get_parsed("k", 32)?;
    let line = spade_matrix::FLOATS_PER_LINE;
    if k == 0 || !k.is_multiple_of(line) {
        return Err(format!(
            "--k: {k} is not a multiple of the cache line ({line} floats)"
        ));
    }
    Ok(k)
}

fn parse_kernel(args: &Args) -> Result<Primitive, String> {
    match args.get("kernel").unwrap_or("spmm") {
        "spmm" => Ok(Primitive::Spmm),
        "sddmm" => Ok(Primitive::Sddmm),
        other => Err(format!("--kernel: unknown kernel '{other}'")),
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "benchmark",
            "kernel",
            "k",
            "pes",
            "scale",
            "rp",
            "cp",
            "rmatrix",
            "format",
            "telemetry",
            "deadline-cycles",
        ],
        &["barriers", "json"],
    )?;
    let bench = parse_benchmark(&args)?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let kernel = parse_kernel(&args)?;
    let json = parse_format(&args)?;
    let telemetry = parse_telemetry(&args)?;
    let deadline = parse_deadline(&args)?;
    let system_config = parse_system(&args)?;
    let a = bench.generate(scale);
    let plan = parse_plan(&args, &a)?;
    let output = execute_observed(
        &system_config,
        &a,
        bench.short_name(),
        k,
        kernel,
        &plan,
        telemetry,
        false,
        deadline,
    )?;
    print_report(
        &output.report,
        json,
        RunSummary {
            benchmark: bench.short_name(),
            kernel: kernel.to_string(),
            k,
            pes: system_config.num_pes,
            plan: &plan,
            report: &output.report,
            telemetry: output.telemetry.as_ref(),
        },
    )
}

/// `spade-cli trace <benchmark>`: run one workload with event tracing on
/// and write a Chrome `trace_event` JSON file, viewable at
/// `ui.perfetto.dev` or `chrome://tracing`. Telemetry counter tracks
/// (requests/cycle, DRAM GB/s, in-flight reads, active PEs) ride along on
/// a dedicated lane unless `--window 0` turns sampling off.
fn trace_cmd(argv: &[String]) -> Result<(), String> {
    // The benchmark may be positional (`spade-cli trace myc`) or a
    // `--benchmark` flag like the other subcommands.
    let (positional, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &argv[1..]),
        _ => (None, argv),
    };
    let args = Args::parse(
        rest,
        &[
            "benchmark",
            "kernel",
            "k",
            "pes",
            "scale",
            "rp",
            "cp",
            "rmatrix",
            "window",
            "out",
        ],
        &["barriers"],
    )?;
    let bench = match positional {
        Some(name) => lookup_benchmark(name)?,
        None => parse_benchmark(&args)?,
    };
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let kernel = parse_kernel(&args)?;
    let system_config = parse_system(&args)?;
    let window: Cycle = args.get_parsed("window", 256)?;
    let telemetry = (window > 0).then_some(window);
    let a = bench.generate(scale);
    let plan = parse_plan(&args, &a)?;
    let output = execute_observed(
        &system_config,
        &a,
        bench.short_name(),
        k,
        kernel,
        &plan,
        telemetry,
        true,
        None,
    )?;
    // The shared builder keeps local traces byte-identical to the
    // daemon's wire-served `trace` responses.
    let (chrome, events) = service::trace_document(&output, system_config.num_pes)?;
    let out_path = match args.get("out") {
        Some(p) => p.to_string(),
        None => format!(
            "{}-{}.trace.json",
            bench.short_name(),
            kernel.to_string().to_lowercase()
        ),
    };
    std::fs::write(&out_path, &chrome).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "wrote {out_path}: {events} events over {} cycles (load in ui.perfetto.dev)",
        output.report.cycles
    );
    Ok(())
}

/// Loads the `--model` file when given. A file that fails to load or
/// validate degrades to `None` with a stderr warning, mirroring the
/// daemon: a broken model costs advice quality, never availability.
fn load_model_flag(args: &Args) -> Option<CostModel> {
    let path = args.get("model")?;
    match CostModel::load(std::path::Path::new(path)) {
        Ok(m) => Some(m),
        Err(e) => {
            eprintln!("warning: cost model {path} unusable ({e}); falling back to the heuristic");
            None
        }
    }
}

/// `spade-cli advise`: three-tier plan selection. The default (`--fast`)
/// path never simulates — a trained `--model` (when it loads and is
/// confident) ranks the candidate plans in microseconds, the structural
/// heuristic answers otherwise. `--exact` is the demoted verification
/// path: candidates are *simulated* (model-pruned to `--top-n` unless
/// `--exhaustive`) and the measured optimum is reported as the
/// `exhaustive` tier.
fn advise_cmd(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &["benchmark", "k", "pes", "scale", "model", "top-n", "format"],
        &["fast", "exact", "exhaustive", "json"],
    )?;
    if args.has("fast") && args.has("exact") {
        return Err("--fast and --exact are mutually exclusive".into());
    }
    let bench = parse_benchmark(&args)?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let json = parse_format(&args)?;
    let system_config = parse_system(&args)?;
    let top_n: usize = args.get_parsed("top-n", spade_bench::runner::PRUNE_TOP_N)?;
    let a = bench.generate(scale);
    let stats = MatrixStats::compute(&a);
    let model = load_model_flag(&args);
    let started = Instant::now();
    let (plan, source, predicted, measured) = if args.has("exact") {
        let w = Workload::from_matrix(bench.short_name().to_string(), a.clone(), k);
        let ranker = if args.has("exhaustive") {
            None
        } else {
            model.as_ref().map(|m| m as &dyn PlanRanker)
        };
        let (plan, report) = spade_bench::runner::find_opt_pruned(
            &system_config,
            &w,
            Primitive::Spmm,
            true,
            ranker,
            top_n,
        );
        (plan, "exhaustive", None, Some(report.cycles))
    } else {
        let ranker = model.as_ref().map(|m| m as &dyn PlanRanker);
        let advice =
            advisor::advise_tiered(&a, k, &system_config, ranker).map_err(|e| e.to_string())?;
        (
            advice.plan,
            advice.source.as_str(),
            advice.predicted_cycles,
            None,
        )
    };
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    if json {
        let features = MatrixFeatures::from_stats(&a, &stats);
        let mut fields = vec![
            ("benchmark", JsonValue::from(bench.short_name())),
            ("scale", format!("{scale:?}").to_lowercase().into()),
            ("k", k.into()),
            ("pes", system_config.num_pes.into()),
            ("source", source.into()),
            ("latency_us", latency_us.into()),
            ("plan", service::plan_json(&plan)),
            (
                "features",
                JsonValue::object(features.to_pairs().into_iter().map(|(n, v)| (n, v.into()))),
            ),
        ];
        if let Some(p) = predicted {
            fields.push(("predicted_cycles", p.into()));
        }
        if let Some(c) = measured {
            fields.push(("measured_cycles", c.into()));
        }
        println!("{}", JsonValue::object(fields).render());
        return Ok(());
    }
    println!(
        "{}: {} rows, {} nnz, RU={}",
        bench.short_name(),
        a.num_rows(),
        a.nnz(),
        stats.classify_ru()
    );
    println!(
        "advised: RP={} CP={} rMatrix={:?} cMatrix={:?} barriers={}",
        plan.tiling.row_panel_size,
        plan.tiling.col_panel_size,
        plan.r_policy,
        plan.c_policy,
        plan.barriers.is_enabled()
    );
    let note = match (predicted, measured) {
        (Some(p), _) => format!(", predicted {p:.0} cycles"),
        (_, Some(c)) => format!(", measured {c} cycles"),
        _ => String::new(),
    };
    println!("source: {source} ({latency_us:.0} \u{3bc}s{note})");
    Ok(())
}

fn search(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "benchmark",
            "k",
            "pes",
            "scale",
            "format",
            "telemetry",
            "deadline-cycles",
        ],
        &["full", "json"],
    )?;
    let bench = parse_benchmark(&args)?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let json = parse_format(&args)?;
    let telemetry = parse_telemetry(&args)?;
    let deadline = parse_deadline(&args)?;
    let system_config = parse_system(&args)?;
    let a = bench.generate(scale);
    let space = if args.has("full") {
        PlanSearchSpace::table3(k)
    } else {
        PlanSearchSpace::quick(k)
    };
    // Fan the candidate sweep across host cores (SPADE_THREADS overrides).
    let workload = Arc::new(Workload::from_matrix(
        bench.short_name().to_string(),
        a.clone(),
        k,
    ));
    let pes = system_config.num_pes;
    let config = Arc::new(system_config);
    let plans = space.enumerate(&a);
    let jobs: Vec<Job> = plans
        .iter()
        .map(|&plan| {
            Job::new(&workload, &config, Primitive::Spmm, plan)
                .with_telemetry(telemetry)
                .with_deadline_cycles(deadline)
        })
        .collect();
    let start = Instant::now();
    // One failing candidate should cost its own slot, not the sweep.
    let outcomes = ParallelRunner::from_env().run_outputs(&jobs);
    let reports: Vec<RunReport> = outcomes
        .iter()
        .flatten()
        .map(|o| o.report.clone())
        .collect();
    if !json {
        println!(
            "{}",
            parallel::throughput_summary(&reports, start.elapsed())
        );
    }
    let mut failures = 0usize;
    let mut results: Vec<(ExecutionPlan, JobOutput)> = Vec::with_capacity(plans.len());
    for (plan, outcome) in plans.into_iter().zip(&outcomes) {
        match outcome {
            Ok(o) => results.push((plan, o.clone())),
            Err(e) => {
                failures += 1;
                eprintln!("warning: candidate plan failed: {e}");
            }
        }
    }
    if results.is_empty() {
        return Err(format!("all {failures} candidate plans failed"));
    }
    results.sort_by_key(|(_, o)| o.report.cycles);
    if json {
        let candidates: Vec<JsonValue> = results
            .iter()
            .map(|(plan, o)| {
                let mut fields = vec![
                    ("plan", service::plan_json(plan)),
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
        let doc = JsonValue::object([
            ("benchmark", bench.short_name().into()),
            ("k", k.into()),
            ("pes", pes.into()),
            ("failures", failures.into()),
            ("candidates", JsonValue::Array(candidates)),
        ]);
        println!("{}", doc.render());
        return Ok(());
    }
    println!("{} plans searched; best first:", results.len());
    for (plan, output) in results.iter().take(5) {
        let telemetry_note = match &output.telemetry {
            Some(series) => format!("  peak {:.2} req/cyc", series.peak_requests_per_cycle()),
            None => String::new(),
        };
        println!(
            "  {:>10} cycles  RP={:<6} CP={:<8} {:?} barriers={}{}",
            output.report.cycles,
            plan.tiling.row_panel_size,
            plan.tiling.col_panel_size,
            plan.r_policy,
            plan.barriers.is_enabled(),
            telemetry_note
        );
    }
    Ok(())
}

fn run_mm(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["file", "k", "pes", "format"], &["json"])?;
    let path = args.get("file").ok_or("--file is required")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let a = mm::read_matrix_market(BufReader::new(file)).map_err(|e| e.to_string())?;
    let k = parse_k(&args)?;
    let system_config = parse_system(&args)?;
    let plan = advisor::advise(&a, k, &system_config).map_err(|e| e.to_string())?;
    let report = execute(&system_config, &a, path, k, Primitive::Spmm, &plan)?;
    print_report(
        &report,
        parse_format(&args)?,
        RunSummary {
            benchmark: path,
            kernel: Primitive::Spmm.to_string(),
            k,
            pes: system_config.num_pes,
            plan: &plan,
            report: &report,
            telemetry: None,
        },
    )
}

/// `spade-cli serve`: the always-on experiment daemon — newline-delimited
/// JSON over TCP, a bounded admission queue with back-pressure, and a
/// crash-safe persistent result cache (see `spade_bench::service`).
/// SIGTERM/ctrl-c (or an in-band `shutdown` request) drains in-flight
/// jobs, flushes the cache index and exits 0.
fn serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "cache-dir",
            "workers",
            "queue",
            "max-connections",
            "deadline-cycles",
            "read-timeout-ms",
            "model",
        ],
        &["log-json"],
    )?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7700").to_string();
    let mut config = service::ServiceConfig::default();
    config.workers = args.get_parsed("workers", config.workers)?;
    config.queue_capacity = args.get_parsed("queue", config.queue_capacity)?;
    config.max_connections = args.get_parsed("max-connections", config.max_connections)?;
    if let Some(d) = parse_deadline(&args)? {
        config.default_deadline_cycles = Some(d);
    }
    let timeout_ms: u64 =
        args.get_parsed("read-timeout-ms", config.read_timeout.as_millis() as u64)?;
    config.read_timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    config.cache_dir = args.get("cache-dir").map(std::path::PathBuf::from);
    // `--model` arms the advise request's model tier; a file that fails
    // to load logs a warning at bind and the heuristic answers instead.
    config.model_path = args.get("model").map(std::path::PathBuf::from);
    // `--log-json` turns the request log spans on explicitly; the
    // SPADE_LOG=json environment default (already in `config`) stays
    // effective either way.
    if args.has("log-json") {
        config.log_json = true;
    }
    service::install_termination_handler();
    let svc = service::Service::bind(&addr, config).map_err(|e| format!("{addr}: bind: {e}"))?;
    let local = svc.local_addr().map_err(|e| e.to_string())?;
    // One machine-parseable banner line: scripts read the actual port
    // (meaningful with --addr 127.0.0.1:0) before sending requests.
    println!(
        "{}",
        JsonValue::object([
            ("serving", local.to_string().into()),
            ("pid", u64::from(std::process::id()).into()),
            ("protocol", service::PROTOCOL_VERSION.into()),
        ])
        .render()
    );
    // stdout is block-buffered when piped; a supervising script must see
    // the banner before the first request, not at exit.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let summary = svc.run().map_err(|e| e.to_string())?;
    println!("{}", summary.to_json().render());
    Ok(())
}

/// `spade-cli client`: talk to a running daemon — the scripting
/// primitive for smoke tests, cache-warm sweeps and operations.
///
/// Two modes share one wire protocol: raw (`--request '<json>'` sends
/// the line verbatim) and typed subcommands (`ping`, `status`,
/// `metrics`, `query`, `batch`, `agg`, `best-plans`, `run`, `search`,
/// `trace`, `shutdown`) that build the request from flags. Every subcommand honours `--format
/// json|text`: `json` prints the daemon's response line untouched,
/// `text` a human rendering. A protocol-level failure prints the raw
/// response and exits non-zero either way.
fn client(argv: &[String]) -> Result<(), String> {
    let (sub, rest) = match argv.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &argv[1..]),
        _ => (None, argv),
    };
    match sub {
        None => client_raw(rest),
        Some("ping") => client_simple(rest, "ping"),
        Some("shutdown") => client_simple(rest, "shutdown"),
        Some("status") => client_status(rest),
        Some("metrics") => client_metrics(rest),
        Some("query") => client_query(rest),
        Some("batch") => client_batch(rest),
        Some("agg") => client_agg(rest, None),
        Some("best-plans") => client_agg(rest, Some("benchmark")),
        Some("run") => client_job(rest, "run"),
        Some("search") => client_job(rest, "search"),
        Some("trace") => client_trace(rest),
        Some("advise") => client_advise(rest),
        Some(other) => Err(format!("client: unknown subcommand '{other}'")),
    }
}

/// Parses `--addr` and connects, with a response-frame limit.
fn client_connect(
    args: &Args,
    max_frame: usize,
) -> Result<(std::net::SocketAddr, service::ServiceClient), String> {
    let addr = args.get("addr").ok_or("--addr is required")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr: cannot parse '{addr}'"))?;
    let client = service::ServiceClient::connect_with_max_frame(&addr, max_frame)
        .map_err(|e| format!("{addr}: connect: {e}"))?;
    Ok((addr, client))
}

/// Sends one request and returns `(raw line, parsed doc)`. A
/// `"ok":false` reply is printed raw and converted into the silent
/// error (empty message) that makes `main` exit non-zero without the
/// usage dump — scripts branch on the exit code, the line is the
/// report.
fn client_roundtrip(
    client: &mut service::ServiceClient,
    addr: &std::net::SocketAddr,
    request: &str,
) -> Result<(String, JsonValue), String> {
    let response = client
        .request_line(request)
        .map_err(|e| format!("{addr}: {e}"))?;
    match JsonValue::parse(&response) {
        Ok(doc) if doc.get("ok").and_then(JsonValue::as_bool) == Some(false) => {
            println!("{response}");
            Err(String::new())
        }
        Ok(doc) => Ok((response, doc)),
        Err(e) => Err(format!("{addr}: unparseable response ({e}): {response}")),
    }
}

/// A `u64` response field, defaulting to 0 — display only, never logic.
fn ju(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn parse_flag_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse '{v}'"))
}

/// Raw mode: `--request '<json>'`. The request is one JSON document on
/// a newline-delimited wire, so embedded newlines (a multi-line shell
/// string) are folded to spaces — insignificant between JSON tokens,
/// fatal to the framing.
fn client_raw(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "request"], &[])?;
    let request = args
        .get("request")
        .ok_or("--request is required")?
        .replace(['\n', '\r'], " ");
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, _doc) = client_roundtrip(&mut client, &addr, &request)?;
    println!("{response}");
    Ok(())
}

/// `client ping` / `client shutdown`: one command word, no payload.
fn client_simple(argv: &[String], cmd: &str) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json"])?;
    let json = parse_format(&args)?;
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let request = JsonValue::object([("cmd", cmd.into())]).render();
    let (response, doc) = client_roundtrip(&mut client, &addr, &request)?;
    if json {
        println!("{response}");
    } else if cmd == "ping" {
        println!("{addr}: ok (protocol {})", ju(&doc, "protocol"));
    } else {
        println!("{addr}: draining");
    }
    Ok(())
}

/// `client status`: the daemon's live state as a human table (or the
/// raw response with `--format json`).
fn client_status(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json"])?;
    let json = parse_format(&args)?;
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let request = JsonValue::object([("cmd", "status".into())]).render();
    let (response, doc) = client_roundtrip(&mut client, &addr, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    println!(
        "daemon {addr}  protocol {}  uptime {} ms{}",
        ju(&doc, "protocol"),
        ju(&doc, "uptime_ms"),
        if doc.get("shutting_down").and_then(JsonValue::as_bool) == Some(true) {
            "  (draining)"
        } else {
            ""
        }
    );
    println!(
        "queue      {}/{} waiting, {} in flight on {} workers",
        ju(&doc, "queue_depth"),
        ju(&doc, "queue_capacity"),
        ju(&doc, "in_flight"),
        ju(&doc, "workers")
    );
    println!(
        "served     ok {}  err {}  overloaded {}  bad-frames {}  connections {}",
        ju(&doc, "served_ok"),
        ju(&doc, "served_err"),
        ju(&doc, "rejected_overload"),
        ju(&doc, "bad_frames"),
        ju(&doc, "connections")
    );
    match doc.get("cache") {
        None | Some(JsonValue::Null) => println!("cache      none"),
        Some(c) => println!(
            "cache      {} entries  hits {}  misses {}  stores {}  quarantined {}",
            ju(c, "entries"),
            ju(c, "hits"),
            ju(c, "misses"),
            ju(c, "stores"),
            ju(c, "quarantined")
        ),
    }
    Ok(())
}

/// `client metrics`: scrape the daemon's registry. `--prom` prints the
/// Prometheus text exposition (rendered client-side from the JSON
/// snapshot — no HTTP endpoint anywhere), `--format json` the raw
/// response, text a compact value listing.
fn client_metrics(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &["json", "prom"])?;
    let json = parse_format(&args)?;
    let prom = args.has("prom");
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let request = JsonValue::object([("cmd", "metrics".into())]).render();
    let (response, doc) = client_roundtrip(&mut client, &addr, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("metrics response has no result")?;
    let snapshot = spade_bench::metrics::MetricsSnapshot::from_json(result)?;
    if prom {
        print!("{}", snapshot.to_prometheus());
        return Ok(());
    }
    for s in &snapshot.samples {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            format!(
                "{{{}}}",
                s.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        match &s.value {
            spade_bench::metrics::SampleValue::Counter(v) => println!("{}{labels} {v}", s.name),
            spade_bench::metrics::SampleValue::Gauge(v) => println!("{}{labels} {v}", s.name),
            spade_bench::metrics::SampleValue::Histogram { sum, counts, .. } => println!(
                "{}{labels} count={} sum={sum}",
                s.name,
                counts.iter().sum::<u64>()
            ),
        }
    }
    Ok(())
}

/// The filter flags of `client query`, `agg` and `best-plans`.
const QUERY_FILTERS: &[&str] = &[
    "benchmark",
    "kernel",
    "kind",
    "k",
    "pes",
    "min-cycles",
    "max-cycles",
    "limit",
];

/// Adds the [`QUERY_FILTERS`] given on the command line to a query
/// request.
fn push_query_filters(args: &Args, fields: &mut Vec<(&str, JsonValue)>) -> Result<(), String> {
    for key in ["benchmark", "kernel", "kind"] {
        if let Some(v) = args.get(key) {
            fields.push((key, v.into()));
        }
    }
    for (flag, key) in [
        ("k", "k"),
        ("pes", "pes"),
        ("min-cycles", "min_cycles"),
        ("max-cycles", "max_cycles"),
        ("limit", "limit"),
    ] {
        if let Some(v) = args.get(flag) {
            fields.push((key, parse_flag_u64(flag, v)?.into()));
        }
    }
    Ok(())
}

/// `client query`: filter the daemon's cache dataset. Every filter flag
/// is optional; matches come back sorted by (benchmark, kernel,
/// cycles), so the first row per benchmark is its best plan.
fn client_query(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[&["addr", "format"], QUERY_FILTERS].concat(),
        &["json"],
    )?;
    let json = parse_format(&args)?;
    let mut fields: Vec<(&str, JsonValue)> = vec![("cmd", "query".into())];
    push_query_filters(&args, &mut fields)?;
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("query response has no result")?;
    println!(
        "matched {} of {} cached entries (showing {})",
        ju(result, "matched"),
        ju(result, "total"),
        ju(result, "returned")
    );
    let entries = result
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("query response has no entries")?;
    if entries.is_empty() {
        return Ok(());
    }
    println!(
        "{:<7} {:<6} {:<6} {:>5} {:>5} {:>12} {:>10}  {:<18} key",
        "kind", "bench", "kernel", "k", "pes", "cycles", "dram", "plan"
    );
    for e in entries {
        let plan = match e.get("plan") {
            None | Some(JsonValue::Null) => "-".to_string(),
            Some(p) => format!(
                "rp={} cp={}{}",
                ju(p, "row_panel_size"),
                ju(p, "col_panel_size"),
                if p.get("barriers").and_then(JsonValue::as_bool) == Some(true) {
                    " b"
                } else {
                    ""
                }
            ),
        };
        println!(
            "{:<7} {:<6} {:<6} {:>5} {:>5} {:>12} {:>10}  {:<18} {}",
            e.get("kind").and_then(JsonValue::as_str).unwrap_or("?"),
            e.get("benchmark")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            e.get("kernel").and_then(JsonValue::as_str).unwrap_or("?"),
            ju(e, "k"),
            ju(e, "pes"),
            ju(e, "cycles"),
            ju(e, "dram_accesses"),
            plan,
            e.get("key").and_then(JsonValue::as_str).unwrap_or("?")
        );
    }
    Ok(())
}

/// Splits a comma-separated flag value into non-empty items.
fn comma_list(name: &str, v: &str) -> Result<Vec<String>, String> {
    let items: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        return Err(format!("--{name}: expected a comma-separated list"));
    }
    Ok(items)
}

/// Same, with every item parsed as a number.
fn comma_list_u64(name: &str, v: &str) -> Result<Vec<JsonValue>, String> {
    comma_list(name, v)?
        .iter()
        .map(|item| parse_flag_u64(name, item).map(JsonValue::from))
        .collect()
}

/// `client batch`: one request, a whole sweep. The comma-list flags
/// form the server-side cross product (benchmarks × kernels × k × pes);
/// the singular plan/scale/cache flags apply to every job. The daemon
/// fans the jobs out through its admission queue and replies once, with
/// per-job payloads in job order.
fn client_batch(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "format",
            "benchmarks",
            "kernels",
            "k",
            "pes",
            "rp",
            "cp",
            "rmatrix",
            "scale",
            "deadline-cycles",
        ],
        &["json", "barriers", "no-cache"],
    )?;
    let json = parse_format(&args)?;
    let mut sweep: Vec<(&str, JsonValue)> = Vec::new();
    let benchmarks = comma_list(
        "benchmarks",
        args.get("benchmarks").ok_or("--benchmarks is required")?,
    )?;
    sweep.push((
        "benchmarks",
        JsonValue::Array(benchmarks.iter().map(|b| b.as_str().into()).collect()),
    ));
    if let Some(v) = args.get("kernels") {
        sweep.push((
            "kernels",
            JsonValue::Array(
                comma_list("kernels", v)?
                    .iter()
                    .map(|k| k.as_str().into())
                    .collect(),
            ),
        ));
    }
    for (flag, key) in [("k", "k"), ("pes", "pes")] {
        if let Some(v) = args.get(flag) {
            sweep.push((key, JsonValue::Array(comma_list_u64(flag, v)?)));
        }
    }
    let mut plan: Vec<(&str, JsonValue)> = Vec::new();
    if let Some(v) = args.get("rp") {
        plan.push(("rp", parse_flag_u64("rp", v)?.into()));
    }
    if let Some(v) = args.get("cp") {
        if v == "all" {
            plan.push(("cp", "all".into()));
        } else {
            plan.push(("cp", parse_flag_u64("cp", v)?.into()));
        }
    }
    if let Some(v) = args.get("rmatrix") {
        plan.push(("rmatrix", v.into()));
    }
    if args.has("barriers") {
        plan.push(("barriers", true.into()));
    }
    if !plan.is_empty() {
        sweep.push(("plans", JsonValue::Array(vec![JsonValue::object(plan)])));
    }
    let mut fields: Vec<(&str, JsonValue)> =
        vec![("cmd", "batch".into()), ("sweep", JsonValue::object(sweep))];
    if let Some(v) = args.get("scale") {
        fields.push(("scale", v.into()));
    }
    if let Some(v) = args.get("deadline-cycles") {
        fields.push((
            "deadline_cycles",
            parse_flag_u64("deadline-cycles", v)?.into(),
        ));
    }
    if args.has("no-cache") {
        fields.push(("no_cache", true.into()));
    }
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("batch response has no result")?;
    println!(
        "batch: {} jobs — {} ok ({} cached), {} failed, {} rejected",
        ju(result, "total"),
        ju(result, "succeeded"),
        ju(result, "cached"),
        ju(result, "failed"),
        ju(result, "rejected")
    );
    let jobs = result
        .get("jobs")
        .and_then(JsonValue::as_array)
        .ok_or("batch response has no jobs")?;
    for job in jobs {
        let index = ju(job, "index");
        if job.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            let r = job.get("result").ok_or("batch job has no result")?;
            let report = r.get("report").ok_or("batch job has no report")?;
            let cached = if job.get("cached").and_then(JsonValue::as_bool) == Some(true) {
                " (cached)"
            } else {
                ""
            };
            println!(
                "  [{index}] {} {} k={} pes={}: {} cycles, {} DRAM accesses{cached}",
                r.get("benchmark")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                r.get("kernel").and_then(JsonValue::as_str).unwrap_or("?"),
                ju(r, "k"),
                ju(r, "pes"),
                ju(report, "cycles"),
                ju(report, "dram_accesses")
            );
        } else {
            let error = job.get("error");
            println!(
                "  [{index}] error {}: {}",
                error
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?"),
                error
                    .and_then(|e| e.get("message"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?")
            );
        }
    }
    // Any failed or rejected job makes the whole invocation non-zero,
    // after the per-job report above — scripts branch on the exit code.
    if ju(result, "failed") + ju(result, "rejected") > 0 {
        return Err(String::new());
    }
    Ok(())
}

/// `client agg` / `client best-plans`: server-side aggregation over the
/// cache dataset. `agg` requires `--group-by benchmark|kernel|pes`;
/// `best-plans` is the preset `--group-by benchmark --kind run`, the
/// best-plan-per-matrix fold EXPERIMENTS.md used to script client-side.
fn client_agg(argv: &[String], preset_group_by: Option<&str>) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[&["addr", "format", "group-by"], QUERY_FILTERS].concat(),
        &["json"],
    )?;
    let json = parse_format(&args)?;
    let group_by = match (args.get("group-by"), preset_group_by) {
        (Some(v), _) => v,
        (None, Some(preset)) => preset,
        (None, None) => return Err("--group-by is required (benchmark|kernel|pes)".into()),
    };
    let mut fields: Vec<(&str, JsonValue)> =
        vec![("cmd", "query".into()), ("group_by", group_by.into())];
    push_query_filters(&args, &mut fields)?;
    if preset_group_by.is_some() && args.get("kind").is_none() {
        fields.push(("kind", "run".into()));
    }
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("agg response has no result")?;
    println!(
        "group_by {}: {} groups over {} matched of {} cached entries",
        result
            .get("group_by")
            .and_then(JsonValue::as_str)
            .unwrap_or("?"),
        ju(result, "returned"),
        ju(result, "matched"),
        ju(result, "total")
    );
    let groups = result
        .get("groups")
        .and_then(JsonValue::as_array)
        .ok_or("agg response has no groups")?;
    if groups.is_empty() {
        return Ok(());
    }
    println!(
        "{:<10} {:>5} {:>12} {:>12} {:>14}  {:<18} best key",
        "group", "n", "min", "max", "mean", "best plan"
    );
    for g in groups {
        let best = g.get("best");
        let plan = match best.and_then(|b| b.get("plan")) {
            None | Some(JsonValue::Null) => "-".to_string(),
            Some(p) => format!(
                "rp={} cp={}{}",
                ju(p, "row_panel_size"),
                ju(p, "col_panel_size"),
                if p.get("barriers").and_then(JsonValue::as_bool) == Some(true) {
                    " b"
                } else {
                    ""
                }
            ),
        };
        let mean = g
            .get("mean_cycles")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>14.1}  {:<18} {}",
            g.get("group").and_then(JsonValue::as_str).unwrap_or("?"),
            ju(g, "count"),
            ju(g, "min_cycles"),
            ju(g, "max_cycles"),
            mean,
            plan,
            best.and_then(|b| b.get("key"))
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
        );
    }
    Ok(())
}

/// The value flags [`wire_job_fields`] reads.
const WIRE_JOB_FLAGS: &[&str] = &[
    "benchmark",
    "scale",
    "kernel",
    "k",
    "pes",
    "rp",
    "cp",
    "rmatrix",
    "deadline-cycles",
];

/// The wire fields shared by `client run|search|trace`, built from the
/// same flags the local subcommands take. Validation happens
/// server-side; the client only insists that numbers parse.
fn wire_job_fields(args: &Args) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let mut fields: Vec<(&'static str, JsonValue)> = Vec::new();
    fields.push((
        "benchmark",
        args.get("benchmark")
            .ok_or("--benchmark is required")?
            .into(),
    ));
    if let Some(v) = args.get("scale") {
        fields.push(("scale", v.into()));
    }
    if let Some(v) = args.get("kernel") {
        fields.push(("kernel", v.into()));
    }
    for (flag, key) in [("k", "k"), ("pes", "pes"), ("rp", "rp")] {
        if let Some(v) = args.get(flag) {
            fields.push((key, parse_flag_u64(flag, v)?.into()));
        }
    }
    if let Some(v) = args.get("cp") {
        if v == "all" {
            fields.push(("cp", "all".into()));
        } else {
            fields.push(("cp", parse_flag_u64("cp", v)?.into()));
        }
    }
    if let Some(v) = args.get("rmatrix") {
        fields.push(("rmatrix", v.into()));
    }
    if args.has("barriers") {
        fields.push(("barriers", true.into()));
    }
    if let Some(v) = args.get("deadline-cycles") {
        fields.push((
            "deadline_cycles",
            parse_flag_u64("deadline-cycles", v)?.into(),
        ));
    }
    if args.has("no-cache") {
        fields.push(("no_cache", true.into()));
    }
    if args.has("full") {
        fields.push(("full", true.into()));
    }
    Ok(fields)
}

/// `client run` / `client search`: submit one job to the daemon.
fn client_job(argv: &[String], cmd: &'static str) -> Result<(), String> {
    let switches: &[&str] = if cmd == "search" {
        &["json", "barriers", "no-cache", "full"]
    } else {
        &["json", "barriers", "no-cache"]
    };
    let args = Args::parse(
        argv,
        &[&["addr", "format"], WIRE_JOB_FLAGS].concat(),
        switches,
    )?;
    let json = parse_format(&args)?;
    let mut fields: Vec<(&str, JsonValue)> = vec![("cmd", cmd.into())];
    fields.extend(wire_job_fields(&args)?);
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("response has no result")?;
    let cached = if doc.get("cached").and_then(JsonValue::as_bool) == Some(true) {
        "cached"
    } else {
        "fresh"
    };
    let key = doc.get("key").and_then(JsonValue::as_str).unwrap_or("-");
    if cmd == "run" {
        let report = result.get("report").ok_or("result has no report")?;
        println!(
            "{} {} k={} pes={}: {} cycles, {} DRAM accesses ({cached}, key {key})",
            result
                .get("benchmark")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            result
                .get("kernel")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            ju(result, "k"),
            ju(result, "pes"),
            ju(report, "cycles"),
            ju(report, "dram_accesses")
        );
    } else {
        let candidates = result
            .get("candidates")
            .and_then(JsonValue::as_array)
            .ok_or("result has no candidates")?;
        println!(
            "{} k={} pes={}: {} plans, {} failures ({cached}, key {key}); best first:",
            result
                .get("benchmark")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
            ju(result, "k"),
            ju(result, "pes"),
            candidates.len(),
            ju(result, "failures")
        );
        for c in candidates.iter().take(5) {
            let plan = c.get("plan");
            println!(
                "  {:>10} cycles  RP={:<6} CP={:<8} barriers={}",
                ju(c, "cycles"),
                plan.map_or(0, |p| ju(p, "row_panel_size")),
                plan.map_or(0, |p| ju(p, "col_panel_size")),
                plan.and_then(|p| p.get("barriers"))
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false)
            );
        }
    }
    Ok(())
}

/// `client advise`: millisecond plan selection from the daemon. Advise
/// is answered on the connection thread, so it works even when every
/// simulation worker is busy.
fn client_advise(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &["addr", "format", "benchmark", "scale", "k", "pes"],
        &["json"],
    )?;
    let json = parse_format(&args)?;
    let mut fields: Vec<(&str, JsonValue)> = vec![("cmd", "advise".into())];
    fields.push((
        "benchmark",
        args.get("benchmark")
            .ok_or("--benchmark is required")?
            .into(),
    ));
    if let Some(v) = args.get("scale") {
        fields.push(("scale", v.into()));
    }
    for flag in ["k", "pes"] {
        if let Some(v) = args.get(flag) {
            fields.push((flag, parse_flag_u64(flag, v)?.into()));
        }
    }
    let (addr, mut client) = client_connect(&args, spade_sim::json::MAX_FRAME_BYTES)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("response has no result")?;
    let plan = result.get("plan").ok_or("result has no plan")?;
    println!(
        "{} k={} pes={}: RP={} CP={} rMatrix={} barriers={} ({} tier, {} \u{3bc}s)",
        result
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .unwrap_or("?"),
        ju(result, "k"),
        ju(result, "pes"),
        ju(plan, "row_panel_size"),
        ju(plan, "col_panel_size"),
        plan.get("r_policy")
            .and_then(JsonValue::as_str)
            .unwrap_or("?"),
        plan.get("barriers")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        result
            .get("source")
            .and_then(JsonValue::as_str)
            .unwrap_or("?"),
        ju(result, "latency_us"),
    );
    Ok(())
}

/// `client trace`: run (or cache-serve) a traced job on the daemon and
/// write the Chrome-trace JSON locally — byte-identical to what
/// `spade-cli trace` produces for the same job. Trace responses are one
/// long line, so the read limit is raised well past the default.
fn client_trace(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[&["addr", "format", "window", "out"], WIRE_JOB_FLAGS].concat(),
        &["json", "barriers", "no-cache"],
    )?;
    let json = parse_format(&args)?;
    let mut fields: Vec<(&str, JsonValue)> = vec![("cmd", "trace".into())];
    fields.extend(wire_job_fields(&args)?);
    if let Some(v) = args.get("window") {
        fields.push(("window", parse_flag_u64("window", v)?.into()));
    }
    let (addr, mut client) = client_connect(&args, 256 << 20)?;
    let (response, doc) =
        client_roundtrip(&mut client, &addr, &JsonValue::object(fields).render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("trace response has no result")?;
    let trace = result.get("trace").ok_or("trace response has no trace")?;
    let out_path = match args.get("out") {
        Some(p) => p.to_string(),
        None => format!(
            "{}-{}.trace.json",
            result
                .get("benchmark")
                .and_then(JsonValue::as_str)
                .unwrap_or("remote"),
            result
                .get("kernel")
                .and_then(JsonValue::as_str)
                .unwrap_or("spmm")
                .to_lowercase()
        ),
    };
    // Re-rendering the parsed value reproduces the daemon's exact bytes:
    // the codec's render∘parse fixpoint is pinned by the json fuzz suite.
    std::fs::write(&out_path, trace.render()).map_err(|e| format!("{out_path}: {e}"))?;
    let report = result.get("report");
    let cached = if doc.get("cached").and_then(JsonValue::as_bool) == Some(true) {
        "cached"
    } else {
        "fresh"
    };
    println!(
        "wrote {out_path}: {} events over {} cycles ({cached}, load in ui.perfetto.dev)",
        ju(result, "events"),
        report.map_or(0, |r| ju(r, "cycles"))
    );
    Ok(())
}

/// `bench-perf`: measures simulator host throughput under the event-driven
/// scheduler and the naive tick-loop oracle across the Figure 9 suite, then
/// writes the machine-readable summary (default `BENCH_sim.json`). The run
/// doubles as an equivalence check: it fails if the two drivers disagree on
/// any simulated metric. `--gate-speedup` turns the run into a regression
/// gate: the command fails (after writing the summary) when the geomean
/// event-driver speedup falls below the given floor.
fn bench_perf(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["scale", "k", "pes", "out", "gate-speedup"], &[])?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let pes: usize = args.get_parsed("pes", 56)?;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("--pes must be a positive multiple of 4".into());
    }
    let gate_speedup: f64 = args.get_parsed("gate-speedup", 0.0)?;
    let out = args.get("out").unwrap_or("BENCH_sim.json").to_string();
    let runner = ParallelRunner::from_env();
    let host_start = Instant::now();
    let summary = spade_bench::perf::run_suite_perf(scale, k, pes, &runner)?;
    println!(
        "{:<6} {:<6} {:>12} {:>14} {:>14} {:>8}",
        "name", "kernel", "cycles", "event cyc/s", "naive cyc/s", "speedup"
    );
    for r in &summary.rows {
        println!(
            "{:<6} {:<6} {:>12} {:>14.3e} {:>14.3e} {:>7.2}x",
            r.workload,
            r.primitive.to_string().to_lowercase(),
            r.cycles,
            r.event_cps,
            r.naive_cps,
            r.speedup()
        );
    }
    println!(
        "geomean: event {:.3e} cyc/s, naive {:.3e} cyc/s, speedup {:.2}x ({} threads, {:.1}s host)",
        summary.geomean_event_cps(),
        summary.geomean_naive_cps(),
        summary.geomean_speedup(),
        summary.threads,
        host_start.elapsed().as_secs_f64()
    );
    std::fs::write(&out, summary.to_json().render()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    if gate_speedup > 0.0 && summary.geomean_speedup() < gate_speedup {
        return Err(format!(
            "gate failed: geomean event-driver speedup {:.3}x is below the \
             required {gate_speedup:.2}x",
            summary.geomean_speedup()
        ));
    }
    Ok(())
}

/// `spade-cli dataset`: operations over the daemon's result-cache
/// catalog as a dataset.
fn dataset(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("export") => dataset_export(&argv[1..]),
        Some(other) => Err(format!("dataset: unknown subcommand '{other}' (export)")),
        None => Err("dataset: expected 'export' subcommand".into()),
    }
}

/// `dataset export`: the cache catalog as one JSON document, the input
/// to `model train`. Rebuilds from entry payloads when `index.json` is
/// stale and skips (with a counted warning) entries that fail their
/// checksum — a damaged cache degrades the dataset, never the export.
fn dataset_export(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["cache-dir", "out"], &[])?;
    let dir = args.get("cache-dir").ok_or("--cache-dir is required")?;
    let doc =
        service::export_dataset(std::path::Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    let rendered = doc.render();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {path}: {} entries ({} quarantined skipped)",
                doc.get("total").and_then(JsonValue::as_u64).unwrap_or(0),
                doc.get("skipped_quarantined")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            );
        }
        None => println!("{rendered}"),
    }
    Ok(())
}

/// `spade-cli model`: fit and inspect plan-selection cost models.
fn model_cmd(argv: &[String]) -> Result<(), String> {
    match argv.first().map(String::as_str) {
        Some("train") => model_train(&argv[1..]),
        Some(other) => Err(format!("model: unknown subcommand '{other}' (train)")),
        None => Err("model: expected 'train' subcommand".into()),
    }
}

/// Recovers an [`RMatrixPolicy`] from the `r_policy` string the plan
/// JSON carries (the enum's `Debug` rendering).
fn policy_from_name(name: &str) -> Option<RMatrixPolicy> {
    match name {
        "Cache" => Some(RMatrixPolicy::Cache),
        "Bypass" => Some(RMatrixPolicy::Bypass),
        "BypassVictim" => Some(RMatrixPolicy::BypassVictim),
        _ => None,
    }
}

/// `model train`: fit a cost model from an exported dataset. Matrix
/// features are recomputed by regenerating each benchmark at `--scale`
/// (cache entries don't carry the matrix), so train against a dataset
/// swept at that same scale. Unusable entries (foreign benchmarks,
/// missing plans, sddmm rows) are skipped with a count, not an error.
fn model_train(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["dataset", "scale", "out", "report"], &[])?;
    let dataset_path = args.get("dataset").ok_or("--dataset is required")?;
    let scale = parse_scale(&args)?;
    let out = args.get("out").unwrap_or("spade.model");
    let text = std::fs::read_to_string(dataset_path).map_err(|e| format!("{dataset_path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{dataset_path}: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or("dataset has no \"entries\" array")?;
    let mut features: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut rows: Vec<TrainingRow> = Vec::new();
    let mut skipped = 0usize;
    for entry in entries {
        let usable = (|| {
            let name = entry.get("benchmark")?.as_str()?;
            if entry.get("kernel")?.as_str()? != "spmm" {
                return None;
            }
            let bench = lookup_benchmark(name).ok()?;
            let plan = entry.get("plan")?;
            let feats = features
                .entry(name.to_string())
                .or_insert_with(|| MatrixFeatures::compute(&bench.generate(scale)).as_vec())
                .clone();
            Some(TrainingRow {
                benchmark: name.to_string(),
                features: feats,
                row_panel: plan.get("row_panel_size")?.as_usize()?,
                col_panel: plan.get("col_panel_size")?.as_usize()?,
                r_policy: policy_from_name(plan.get("r_policy")?.as_str()?)?,
                barriers: plan.get("barriers")?.as_bool()?,
                k: entry.get("k")?.as_usize()?,
                pes: entry.get("pes")?.as_usize()?,
                cycles: entry.get("cycles")?.as_u64()?,
            })
        })();
        match usable {
            Some(row) => rows.push(row),
            None => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("warning: {skipped} dataset entries were not usable as training rows");
    }
    let model = CostModel::fit(&rows)?;
    println!(
        "fitted on {} rows ({} held out): holdout MARE {:.3}{}",
        model.accuracy.train_rows,
        model.accuracy.holdout_rows,
        model.accuracy.holdout_mare,
        if model.confident() {
            ""
        } else {
            " — NOT confident; advise will use the heuristic"
        }
    );
    for (bench, n, mare) in &model.accuracy.per_benchmark {
        println!("  {bench:<6} {n:>5} rows  MARE {mare:.3}");
    }
    model.save(std::path::Path::new(out))?;
    println!("wrote {out}");
    if let Some(report) = args.get("report") {
        std::fs::write(report, model.accuracy.to_json().render())
            .map_err(|e| format!("{report}: {e}"))?;
        println!("wrote {report}");
    }
    Ok(())
}

/// Merges `section` under `key` into the JSON document at `path`,
/// preserving every other key — `bench-perf` and `bench-advise` write
/// the same summary file from different CI legs. A missing or
/// unparseable file starts a fresh document.
fn merge_bench_section(path: &str, key: &str, section: JsonValue) -> String {
    let mut fields: Vec<(String, JsonValue)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|t| JsonValue::parse(&t).ok())
    {
        Some(JsonValue::Object(fields)) => fields,
        _ => Vec::new(),
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = section,
        None => fields.push((key.to_string(), section)),
    }
    JsonValue::Object(fields).render()
}

/// `bench-advise`: measures plan-selection latency and quality across
/// the Figure 9 suite — the timed quick `find_opt` sweep per benchmark
/// versus the tiered advise scored by a leave-one-benchmark-out model —
/// and merges the `bench_advise` section into the bench summary JSON.
/// `--model-out`/`--report-out` save the full-sweep model and its
/// accuracy report as artifacts; `--gate-advise-speedup` (floor on the
/// advise speedup geomean) and `--gate-advise-quality` (ceiling on the
/// selected-plan cycles / Opt cycles geomean) turn the run into a
/// regression gate, failing after the summary is written.
fn bench_advise(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "scale",
            "k",
            "pes",
            "out",
            "model-out",
            "report-out",
            "gate-advise-speedup",
            "gate-advise-quality",
        ],
        &[],
    )?;
    let scale = parse_scale(&args)?;
    let k = parse_k(&args)?;
    let pes: usize = args.get_parsed("pes", 56)?;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("--pes must be a positive multiple of 4".into());
    }
    let gate_speedup: f64 = args.get_parsed("gate-advise-speedup", 0.0)?;
    let gate_quality: f64 = args.get_parsed("gate-advise-quality", 0.0)?;
    let out = args.get("out").unwrap_or("BENCH_sim.json").to_string();
    let runner = ParallelRunner::from_env();
    let bench = spade_bench::perf::run_advise_bench(scale, k, pes, &runner)?;
    println!(
        "{:<6} {:>12} {:>12} {:>7} {:>10} {:>11} {:>12} {:>9}",
        "name",
        "opt cyc",
        "advised cyc",
        "quality",
        "source",
        "advise \u{3bc}s",
        "find-opt \u{3bc}s",
        "speedup"
    );
    for r in &bench.rows {
        println!(
            "{:<6} {:>12} {:>12} {:>7.3} {:>10} {:>11.1} {:>12.0} {:>8.0}x",
            r.workload,
            r.opt_cycles,
            r.advised_cycles,
            r.quality(),
            r.source,
            r.advise_us,
            r.find_opt_us,
            r.speedup()
        );
    }
    println!(
        "advise geomean: quality {:.3}, speedup {:.0}x; model holdout MARE {:.3}",
        bench.geomean_quality(),
        bench.geomean_speedup(),
        bench.model.accuracy.holdout_mare
    );
    let merged = merge_bench_section(&out, "bench_advise", bench.to_json());
    std::fs::write(&out, merged).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    if let Some(path) = args.get("model-out") {
        bench.model.save(std::path::Path::new(path))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("report-out") {
        std::fs::write(path, bench.model.accuracy.to_json().render())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if gate_quality > 0.0 && bench.geomean_quality() > gate_quality {
        return Err(format!(
            "gate failed: advised-plan quality geomean {:.3} exceeds the \
             allowed {gate_quality:.2}\u{d7} of exhaustive Opt",
            bench.geomean_quality()
        ));
    }
    if gate_speedup > 0.0 && bench.geomean_speedup() < gate_speedup {
        return Err(format!(
            "gate failed: advise speedup geomean {:.1}x is below the \
             required {gate_speedup:.0}x",
            bench.geomean_speedup()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn info_runs() {
        dispatch(&argv(&["info"])).unwrap();
    }

    #[test]
    fn run_executes_a_tiny_benchmark() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn run_with_json_and_knobs() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "kro",
            "--pes",
            "4",
            "--rp",
            "4",
            "--cp",
            "all",
            "--rmatrix",
            "victim",
            "--json",
        ]))
        .unwrap();
    }

    #[test]
    fn advise_runs() {
        dispatch(&argv(&["advise", "--benchmark", "roa", "--pes", "8"])).unwrap();
    }

    #[test]
    fn bad_pes_is_rejected() {
        assert!(dispatch(&argv(&["run", "--benchmark", "kro", "--pes", "3"])).is_err());
    }

    #[test]
    fn run_with_format_json_and_telemetry() {
        dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--format",
            "json",
            "--telemetry",
            "128",
        ]))
        .unwrap();
    }

    #[test]
    fn bad_format_and_zero_telemetry_are_rejected() {
        assert!(dispatch(&argv(&["run", "--benchmark", "myc", "--format", "xml"])).is_err());
        assert!(dispatch(&argv(&["run", "--benchmark", "myc", "--telemetry", "0"])).is_err());
    }

    #[test]
    fn trace_writes_a_valid_chrome_trace() {
        let path = std::env::temp_dir().join("spade_cli_trace_test.trace.json");
        dispatch(&argv(&[
            "trace",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--window",
            "256",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"cat\":\"tile\""));
        assert!(text.contains("\"ph\":\"C\""), "telemetry counter tracks");
        // No wall-clock values: the trace is deterministic byte for byte.
        assert!(!text.contains("host_wall"));
    }

    #[test]
    fn bench_perf_writes_a_valid_summary() {
        let path = std::env::temp_dir().join("spade_cli_bench_perf_test.json");
        dispatch(&argv(&[
            "bench-perf",
            "--scale",
            "tiny",
            "--k",
            "16",
            "--pes",
            "4",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(spade_sim::json::validate(&text), Ok(()));
        assert!(text.contains("\"geomean_speedup\""));
        assert!(text.contains("\"kernel\":\"sddmm\""));
    }

    #[test]
    fn undeclared_flags_are_rejected_by_name() {
        let err = dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--scale",
            "tiny",
            "--bogus-flag",
            "3",
        ]))
        .unwrap_err();
        assert!(err.contains("'--bogus-flag'"), "{err}");
        // Flags that no longer exist fail loudly instead of being
        // ignored, so an old script cannot pass without the gate it set.
        let err = dispatch(&argv(&["run", "--benchmark", "myc", "--shards", "2"])).unwrap_err();
        assert!(err.contains("'--shards'"), "{err}");
        let err = dispatch(&argv(&["bench-perf", "--gate-shard-speedup", "1.5"])).unwrap_err();
        assert!(err.contains("'--gate-shard-speedup'"), "{err}");
        let err = dispatch(&argv(&["bench-perf", "--gate-mem-speedup", "1.05"])).unwrap_err();
        assert!(err.contains("'--gate-mem-speedup'"), "{err}");
        let err = dispatch(&argv(&["bench-perf", "--mem-ops", "0"])).unwrap_err();
        assert!(err.contains("'--mem-ops'"), "{err}");
    }

    #[test]
    fn mm_roundtrip_via_tempfile() {
        let a = Coo::from_triplets(32, 32, &[(0, 1, 1.0), (5, 7, 2.0), (31, 0, 3.0)]).unwrap();
        let path = std::env::temp_dir().join("spade_cli_test.mtx");
        let mut buf = Vec::new();
        mm::write_matrix_market(&a, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        dispatch(&argv(&[
            "mm",
            "--file",
            path.to_str().unwrap(),
            "--k",
            "16",
            "--pes",
            "4",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn advise_fast_and_exact_run() {
        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--format",
            "json",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--exact",
            "--exhaustive",
        ]))
        .unwrap();
        let err = dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--fast",
            "--exact",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    /// The full offline loop: a swept cache (with a stale index and one
    /// corrupt entry) → `dataset export` → `model train` → `advise
    /// --model`. Pins the satellite contract: a stale `index.json` is
    /// rebuilt from entry payloads and quarantined entries are skipped
    /// with a count, never a failure.
    #[test]
    fn dataset_export_model_train_advise_roundtrip() {
        use spade_bench::cache::ResultCache;
        let dir = std::env::temp_dir().join(format!("spade_cli_dataset_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let mut i = 0usize;
        for bench in ["MYC", "KRO"] {
            for k in [16u64, 32, 48] {
                for rp in [64u64, 256, 1024] {
                    for cp in [512u64, 4096] {
                        for rpol in ["Cache", "BypassVictim"] {
                            let payload = format!(
                                "{{\"benchmark\":\"{bench}\",\"kernel\":\"spmm\",\"k\":{k},\
                                 \"pes\":4,\"plan\":{{\"row_panel_size\":{rp},\
                                 \"col_panel_size\":{cp},\"r_policy\":\"{rpol}\",\
                                 \"c_policy\":\"Cache\",\"barriers\":false}},\
                                 \"report\":{{\"cycles\":{},\"dram_accesses\":7}}}}",
                                rp * 1000 + k
                            );
                            cache.put(&format!("e{i:03x}"), payload.as_bytes()).unwrap();
                            i += 1;
                        }
                    }
                }
            }
        }
        // Stale index: garbage forces the rebuild-from-payloads path.
        std::fs::write(dir.join("index.json"), "not json at all").unwrap();
        // One damaged entry: must be quarantined and skipped, not fatal.
        let victim = dir.join("e000.entry");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();

        let ds = dir.join("dataset.json");
        dispatch(&argv(&[
            "dataset",
            "export",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--out",
            ds.to_str().unwrap(),
        ]))
        .unwrap();
        let doc = JsonValue::parse(&std::fs::read_to_string(&ds).unwrap()).unwrap();
        assert_eq!(doc.get("total").and_then(JsonValue::as_u64), Some(71));
        assert_eq!(
            doc.get("skipped_quarantined").and_then(JsonValue::as_u64),
            Some(1)
        );

        let model_path = dir.join("spade.model");
        let report_path = dir.join("accuracy.json");
        dispatch(&argv(&[
            "model",
            "train",
            "--dataset",
            ds.to_str().unwrap(),
            "--scale",
            "tiny",
            "--out",
            model_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let report = JsonValue::parse(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        assert!(report
            .get("holdout_mare")
            .and_then(JsonValue::as_f64)
            .is_some());

        dispatch(&argv(&[
            "advise",
            "--benchmark",
            "myc",
            "--k",
            "16",
            "--pes",
            "4",
            "--model",
            model_path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn client_batch_requires_benchmarks() {
        let err = dispatch(&argv(&["client", "batch", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--benchmarks"), "{err}");
    }

    #[test]
    fn client_batch_rejects_bad_lists() {
        // A list of separators is empty once trimmed.
        let err = dispatch(&argv(&[
            "client",
            "batch",
            "--addr",
            "127.0.0.1:1",
            "--benchmarks",
            ", ,",
        ]))
        .unwrap_err();
        assert!(err.contains("comma-separated"), "{err}");
        let err = dispatch(&argv(&[
            "client",
            "batch",
            "--addr",
            "127.0.0.1:1",
            "--benchmarks",
            "myc",
            "--k",
            "16,oops",
        ]))
        .unwrap_err();
        assert!(err.contains("--k: cannot parse 'oops'"), "{err}");
    }

    #[test]
    fn client_agg_requires_group_by() {
        let err = dispatch(&argv(&["client", "agg", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--group-by"), "{err}");
    }

    #[test]
    fn comma_lists_parse_and_trim() {
        assert_eq!(
            comma_list("benchmarks", "myc, kro ,pap").unwrap(),
            vec!["myc".to_string(), "kro".to_string(), "pap".to_string()]
        );
        assert_eq!(comma_list_u64("k", "16,32").unwrap().len(), 2);
    }
}
