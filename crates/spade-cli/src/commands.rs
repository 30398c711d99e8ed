//! Subcommand implementations.
//!
//! `run`, `search`, `trace`, `advise` and `mm` are in-process clients of
//! the daemon's request core ([`spade_bench::request`]): their flags
//! become the document `client` would send, the core parses and executes
//! it, and the command prints the core's result bytes (`--format json`)
//! or the text its `client` twin prints for the same result.

use std::fs::File;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use spade_bench::model::{CostModel, TrainingRow};
use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::request::{self, Advised, Prepared, Workloads};
use spade_bench::service;
use spade_bench::suite::Workload;
use spade_core::advisor::PlanRanker;
use spade_core::{advisor, JsonValue, Primitive, RMatrixPolicy, SystemConfig};
use spade_matrix::analysis::{MatrixFeatures, MatrixStats};
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::mm;
use spade_sim::json::MAX_FRAME_BYTES;
use spade_sim::Cycle;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  spade-cli info   [--scale tiny|small|default|large]
  spade-cli run    --benchmark <name> [--kernel spmm|sddmm] [--k 32]
                   [--pes 56] [--scale tiny|small|default|large]
                   [--rp N] [--cp N|all] [--rmatrix cache|bypass|victim]
                   [--barriers] [--deadline-cycles N]
                   [--format json|text] [--telemetry <window>]
  spade-cli trace  <name> [--kernel spmm|sddmm] [--k 32] [--pes 56]
                   [--scale ...] [--rp N] [--cp N|all] [--rmatrix ...]
                   [--barriers] [--deadline-cycles N] [--window 256]
                   [--out <file.trace.json>]
  spade-cli advise --benchmark <name> [--k 32] [--pes 56] [--scale ...]
                   [--exact] [--model FILE] [--top-n 5] [--format json|text]
  spade-cli search --benchmark <name> [--k 32] [--pes 56] [--scale ...] [--full]
                   [--deadline-cycles N] [--format json|text]
                   [--telemetry <window>]
  spade-cli mm     --file <matrix.mtx> [--k 32] [--pes 56] [--format json|text]
  spade-cli serve  [--addr 127.0.0.1:7700] [--cache-dir DIR] [--workers N]
                   [--queue 32] [--max-connections 32] [--deadline-cycles N]
                   [--read-timeout-ms 500] [--log-json] [--model FILE]
  spade-cli client --addr <host:port> --request '<json>'
  spade-cli client ping|status|metrics|shutdown --addr <host:port>
                   [--format json|text] [--prom (metrics only)]
  spade-cli client run|search|trace --addr <host:port> --benchmark <name>
                   [the local command's request flags] [--no-cache]
                   [--format json|text] [--out <file.trace.json> (trace only)]
  spade-cli client advise --addr <host:port> --benchmark <name> [--k 32]
                   [--pes 56] [--scale ...] [--format json|text]
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
  spade-cli dataset export --cache-dir DIR [--out FILE]
  spade-cli model train --dataset FILE [--scale tiny|small|default|large]
                   [--out spade.model] [--report FILE]
  spade-cli bench-advise [--scale ...] [--k 32] [--pes 56]
                   [--out BENCH_sim.json] [--model-out FILE] [--report-out FILE]
                   [--gate-advise-speedup X] [--gate-advise-quality X]

run, search, trace and advise run the daemon's own request parser and
executor in-process, so --format json prints the daemon's `result` bytes:
host_wall_ns reads 0 (text output adds the host wall clock), and advise
carries scale and features on both. Both front ends take k <= 4096 and
pes <= 1024; --deadline-cycles 0 means no ceiling. --telemetry adds a
series that no daemon request reads. advise --exact simulates every
candidate (the --model's --top-n when a model loads), so only the CLI
offers it. A value flag given twice is an error that names it; trace's
<name> is its --benchmark, so trace <name> --benchmark <other> is one.
--barriers places a barrier between column panels, so it does nothing
without --cp N: the default --cp all is one panel.

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
        "run" => local_job(rest, "run", RUN),
        "trace" => local_job(rest, "trace", TRACE),
        "advise" => advise_cmd(rest),
        "search" => local_job(rest, "search", SEARCH),
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

/// How a flag's text becomes the value of its request field.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// The text itself.
    Text,
    /// A non-negative integer.
    Number,
    /// A column panel: an integer or `all`.
    Panel,
    /// A switch: `true` when given.
    Switch,
}

/// One request field and the flag that sets it.
#[derive(Debug, Clone, Copy)]
struct Field {
    flag: &'static str,
    key: &'static str,
    kind: Kind,
}

const fn field(flag: &'static str, key: &'static str, kind: Kind) -> Field {
    Field { flag, key, kind }
}

const BENCHMARK: Field = field("benchmark", "benchmark", Kind::Text);
const SCALE: Field = field("scale", "scale", Kind::Text);
const KERNEL: Field = field("kernel", "kernel", Kind::Text);
const K: Field = field("k", "k", Kind::Number);
const PES: Field = field("pes", "pes", Kind::Number);
const RP: Field = field("rp", "rp", Kind::Number);
const CP: Field = field("cp", "cp", Kind::Panel);
const RMATRIX: Field = field("rmatrix", "rmatrix", Kind::Text);
const BARRIERS: Field = field("barriers", "barriers", Kind::Switch);
const DEADLINE: Field = field("deadline-cycles", "deadline_cycles", Kind::Number);
const WINDOW: Field = field("window", "window", Kind::Number);
const FULL: Field = field("full", "full", Kind::Switch);
const NO_CACHE: Field = field("no-cache", "no_cache", Kind::Switch);
const KIND: Field = field("kind", "kind", Kind::Text);
const MIN_CYCLES: Field = field("min-cycles", "min_cycles", Kind::Number);
const MAX_CYCLES: Field = field("max-cycles", "max_cycles", Kind::Number);
const LIMIT: Field = field("limit", "limit", Kind::Number);

/// The fields each request reads. A command and its `client` twin
/// declare exactly these flags, plus their own.
const RUN: &[Field] = &[
    BENCHMARK, SCALE, KERNEL, K, PES, RP, CP, RMATRIX, BARRIERS, DEADLINE,
];
const TRACE: &[Field] = &[
    BENCHMARK, SCALE, KERNEL, K, PES, RP, CP, RMATRIX, BARRIERS, DEADLINE, WINDOW,
];
const SEARCH: &[Field] = &[BENCHMARK, SCALE, K, PES, FULL, DEADLINE];
const ADVISE: &[Field] = &[BENCHMARK, SCALE, K, PES];
/// The filters of `client query`, `agg` and `best-plans`.
const QUERY: &[Field] = &[
    BENCHMARK, KERNEL, KIND, K, PES, MIN_CYCLES, MAX_CYCLES, LIMIT,
];
/// What `client batch` sets once for every job of its sweep.
const BATCH: &[Field] = &[SCALE, RP, CP, RMATRIX, BARRIERS, DEADLINE, NO_CACHE];
/// The suite shape of `bench-perf` and `bench-advise`.
const SUITE: &[Field] = &[SCALE, K, PES];

/// Parses `argv` for a command that reads `fields` plus its own `values`
/// and `switches` flags.
fn parse_args(
    argv: &[String],
    fields: &[Field],
    values: &[&str],
    switches: &[&str],
) -> Result<Args, String> {
    let mut values = values.to_vec();
    let mut switches = switches.to_vec();
    for f in fields {
        match f.kind {
            Kind::Switch => switches.push(f.flag),
            _ => values.push(f.flag),
        }
    }
    Args::parse(argv, &values, &switches)
}

/// The document `client` sends: `head` (the `cmd` and whatever else the
/// command sets itself), then each of `fields` given on the command line
/// in wire form. Only a number's syntax is checked here; the values are
/// validated where the daemon validates them, in the request core.
fn request_doc(
    head: Vec<(&'static str, JsonValue)>,
    fields: &[Field],
    args: &Args,
) -> Result<JsonValue, String> {
    let mut doc = head;
    for f in fields {
        let value = match (f.kind, args.get(f.flag)) {
            (Kind::Switch, _) => args.has(f.flag).then_some(JsonValue::from(true)),
            (_, None) => None,
            (Kind::Text, Some(v)) | (Kind::Panel, Some(v @ "all")) => Some(v.into()),
            (Kind::Number | Kind::Panel, Some(v)) => Some(parse_flag_u64(f.flag, v)?.into()),
        };
        if let Some(value) = value {
            doc.push((f.key, value));
        }
    }
    Ok(JsonValue::object(doc))
}

/// A request document's head: its `cmd`.
fn cmd(name: &'static str) -> Vec<(&'static str, JsonValue)> {
    vec![("cmd", name.into())]
}

/// Whether machine-readable output was requested: `--format json|text`.
fn parse_format(args: &Args) -> Result<bool, String> {
    match args.get("format") {
        None | Some("text") => Ok(false),
        Some("json") => Ok(true),
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

fn parse_flag_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse '{v}'"))
}

fn info(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, &[SCALE], &[], &[])?;
    let scale = request::parse_scale(&request_doc(vec![], &[SCALE], &args)?)?;
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

/// `run`, `search` and `trace`: the request `client` would send, parsed
/// and executed in-process by the request core, with no cache and no
/// default deadline. `trace` takes its benchmark positionally too
/// (`spade-cli trace myc`) and writes the Chrome trace to a file, viewable
/// at `ui.perfetto.dev`.
fn local_job(argv: &[String], name: &'static str, fields: &[Field]) -> Result<(), String> {
    let args = if name == "trace" {
        // The positional name is a `--benchmark`, so giving both is a
        // repeated flag and fails by name.
        let argv = match argv.split_first() {
            Some((first, rest)) if !first.starts_with("--") => {
                [&["--benchmark".to_string(), first.clone()], rest].concat()
            }
            _ => argv.to_vec(),
        };
        parse_args(&argv, fields, &["out"], &[])?
    } else {
        parse_args(argv, fields, &["format", "telemetry"], &[])?
    };
    let json = parse_format(&args)?;
    let telemetry = parse_telemetry(&args)?;
    let doc = request_doc(cmd(name), fields, &args)?;
    let prepared = request::parse(&doc, None)?
        .prepare(&mut Workloads::new())
        .with_telemetry(telemetry);
    print_local(&prepared, json, args.get("out"))
}

/// Executes `prepared` on the environment's runner (`SPADE_THREADS`) and
/// prints the result bytes with `--format json`, otherwise the text its
/// `client` twin prints, plus the host wall clock.
fn print_local(prepared: &Prepared, json: bool, out: Option<&str>) -> Result<(), String> {
    let started = Instant::now();
    let executed = prepared
        .execute(&ParallelRunner::from_env())
        .map_err(|e| e.to_string())?;
    let host_s = started.elapsed().as_secs_f64();
    if json {
        println!("{}", executed.render());
        return Ok(());
    }
    match prepared {
        Prepared::Run(_) => print_run(&executed.doc, None),
        Prepared::Search(_) => print_search(&executed.doc, None),
        Prepared::Trace { .. } => {
            let chrome = executed.trace.as_deref().unwrap_or_default();
            return write_trace(&executed.doc, chrome, out, None);
        }
    }
    let cycles: u64 = executed.cycles.iter().sum();
    println!(
        "host wall clock   : {:.1} ms ({:.1} Mcycle/s simulated)",
        host_s * 1e3,
        cycles as f64 / host_s.max(1e-9) / 1e6
    );
    Ok(())
}

/// ` (note)`, or nothing.
fn paren(note: Option<&str>) -> String {
    note.map(|n| format!(" ({n})")).unwrap_or_default()
}

/// A `run` result as text, for `run`, `mm` and `client run`.
fn print_run(result: &JsonValue, note: Option<&str>) {
    let report = result.get("report").unwrap_or(&JsonValue::Null);
    let cycles = ju(report, "cycles");
    println!(
        "{} {} k={} pes={}{}",
        js(result, "benchmark"),
        js(result, "kernel"),
        ju(result, "k"),
        ju(result, "pes"),
        paren(note)
    );
    println!("cycles            : {cycles}");
    println!("time              : {:.1} µs", jf(report, "time_ns") / 1e3);
    println!("vOps              : {}", ju(report, "total_vops"));
    println!("DRAM accesses     : {}", ju(report, "dram_accesses"));
    println!("LLC accesses      : {}", ju(report, "llc_accesses"));
    println!(
        "requests/cycle    : {:.2}",
        jf(report, "requests_per_cycle")
    );
    println!(
        "DRAM bandwidth    : {:.1} GB/s",
        jf(report, "achieved_gbps")
    );
    println!(
        "termination cost  : {:.2}%",
        ju(report, "termination_cycles") as f64 / cycles.max(1) as f64 * 100.0
    );
    if let Some(series) = result.get("telemetry") {
        let samples = series.get("samples").and_then(JsonValue::as_array);
        let samples = samples.unwrap_or_default();
        let covered: u64 = samples.iter().map(|s| ju(s, "len")).sum();
        let requests: u64 = samples.iter().map(|s| ju(s, "requests")).sum();
        println!(
            "telemetry         : {} windows × {} cycles, mean {:.2} req/cycle, peak {:.2}",
            samples.len(),
            ju(series, "window"),
            requests as f64 / covered.max(1) as f64,
            peak_requests_per_cycle(series)
        );
    }
}

fn peak_requests_per_cycle(series: &JsonValue) -> f64 {
    let samples = series.get("samples").and_then(JsonValue::as_array);
    samples
        .unwrap_or_default()
        .iter()
        .map(|s| jf(s, "requests_per_cycle"))
        .fold(0.0, f64::max)
}

/// A `search` result as text, best five first, for `search` and
/// `client search`.
fn print_search(result: &JsonValue, note: Option<&str>) {
    let candidates = result.get("candidates").and_then(JsonValue::as_array);
    let candidates = candidates.unwrap_or_default();
    println!(
        "{} k={} pes={}: {} plans, {} failures{}; best first:",
        js(result, "benchmark"),
        ju(result, "k"),
        ju(result, "pes"),
        candidates.len(),
        ju(result, "failures"),
        paren(note)
    );
    for c in candidates.iter().take(5) {
        let plan = c.get("plan").unwrap_or(&JsonValue::Null);
        let peak = match c.get("telemetry") {
            Some(series) => format!("  peak {:.2} req/cyc", peak_requests_per_cycle(series)),
            None => String::new(),
        };
        println!(
            "  {:>10} cycles  RP={:<6} CP={:<8} {} barriers={}{peak}",
            ju(c, "cycles"),
            ju(plan, "row_panel_size"),
            ju(plan, "col_panel_size"),
            js(plan, "r_policy"),
            jb(plan, "barriers")
        );
    }
}

/// Writes a `trace` result's Chrome JSON to `out` (default
/// `<benchmark>-<kernel>.trace.json`) and says so, for `trace` and
/// `client trace`.
fn write_trace(
    result: &JsonValue,
    chrome: &str,
    out: Option<&str>,
    note: Option<&str>,
) -> Result<(), String> {
    let path = out.map_or_else(
        || {
            format!(
                "{}-{}.trace.json",
                js(result, "benchmark"),
                js(result, "kernel").to_lowercase()
            )
        },
        str::to_string,
    );
    std::fs::write(&path, chrome).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path}: {} events over {} cycles ({}load in ui.perfetto.dev)",
        ju(result, "events"),
        result.get("report").map_or(0, |r| ju(r, "cycles")),
        note.map(|n| format!("{n}, ")).unwrap_or_default()
    );
    Ok(())
}

/// An `advise` result as text, for `advise` and `client advise`.
fn print_advice(result: &JsonValue) {
    let plan = result.get("plan").unwrap_or(&JsonValue::Null);
    let note = match (
        result.get("predicted_cycles").and_then(JsonValue::as_f64),
        result.get("measured_cycles").and_then(JsonValue::as_u64),
    ) {
        (Some(p), _) => format!(", predicted {p:.0} cycles"),
        (_, Some(c)) => format!(", measured {c} cycles"),
        _ => String::new(),
    };
    println!(
        "{} k={} pes={}: RP={} CP={} rMatrix={} barriers={} ({} tier, {} \u{3bc}s{note})",
        js(result, "benchmark"),
        ju(result, "k"),
        ju(result, "pes"),
        ju(plan, "row_panel_size"),
        ju(plan, "col_panel_size"),
        js(plan, "r_policy"),
        jb(plan, "barriers"),
        js(result, "source"),
        ju(result, "latency_us"),
    );
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

/// `spade-cli advise`: three-tier plan selection. By default it is the
/// daemon's `advise` request and never simulates — a trained `--model`
/// (when it loads and is confident) ranks the candidate plans in
/// microseconds, the structural heuristic answers otherwise. `--exact` is
/// the demoted verification path: candidates are *simulated* and the
/// measured optimum is reported as the `exhaustive` tier. With a model
/// the candidates are pruned to its `--top-n`; without one (or with
/// `--top-n 0`) every candidate runs.
fn advise_cmd(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, ADVISE, &["model", "top-n", "format"], &["exact"])?;
    let json = parse_format(&args)?;
    let target = request::parse_target(&request_doc(cmd("advise"), ADVISE, &args)?)?;
    let top_n: usize = args.get_parsed("top-n", spade_bench::runner::PRUNE_TOP_N)?;
    let model = load_model_flag(&args);
    let ranker = model.as_ref().map(|m| m as &dyn PlanRanker);
    let advised = if args.has("exact") {
        Advised::exact(&target, ranker, top_n)
    } else {
        request::advise(&target, ranker)?
    };
    let result = advised.to_json(&target);
    if json {
        println!("{}", result.render());
    } else {
        print_advice(&result);
    }
    Ok(())
}

/// `spade-cli mm`: the advised plan on a MatrixMarket file, executed and
/// rendered like a `run` whose benchmark is the file.
fn run_mm(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, &[K, PES], &["file", "format"], &[])?;
    let json = parse_format(&args)?;
    let doc = request_doc(vec![], &[K, PES], &args)?;
    let (k, pes) = (request::parse_k(&doc)?, request::parse_pes(&doc)?);
    let path = args.get("file").ok_or("--file is required")?;
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let a = mm::read_matrix_market(BufReader::new(file)).map_err(|e| e.to_string())?;
    let config = SystemConfig::scaled(pes);
    let plan = advisor::advise(&a, k, &config).map_err(|e| e.to_string())?;
    let workload = Arc::new(Workload::from_matrix(path, a, k));
    let job = Job::new(&workload, &Arc::new(config), Primitive::Spmm, plan);
    print_local(&Prepared::Run(Box::new(job)), json, None)
}

/// `spade-cli serve`: the always-on experiment daemon — newline-delimited
/// JSON over TCP, a bounded admission queue with back-pressure, and a
/// crash-safe persistent result cache (see `spade_bench::service`).
/// SIGTERM/ctrl-c (or an in-band `shutdown` request) drains in-flight
/// jobs, flushes the cache index and exits 0.
fn serve(argv: &[String]) -> Result<(), String> {
    let args = parse_args(
        argv,
        &[DEADLINE],
        &[
            "addr",
            "cache-dir",
            "workers",
            "queue",
            "max-connections",
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
    config.default_deadline_cycles = request::parse_deadline(
        &request_doc(vec![], &[DEADLINE], &args)?,
        config.default_deadline_cycles,
    )?;
    let timeout_ms: u64 =
        args.get_parsed("read-timeout-ms", config.read_timeout.as_millis() as u64)?;
    config.read_timeout = std::time::Duration::from_millis(timeout_ms.max(1));
    config.cache_dir = args.get("cache-dir").map(std::path::PathBuf::from);
    // `--model` arms the advise request's model tier; a file that fails
    // to load logs a warning at bind and the heuristic answers instead.
    config.model_path = args.get("model").map(std::path::PathBuf::from);
    config.log_json = args.has("log-json");
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
/// `trace`, `advise`, `shutdown`) that build the request from flags.
/// Every subcommand honours `--format json|text`: `json` prints the
/// daemon's response line untouched, `text` a human rendering. A
/// protocol-level failure prints the raw response and exits non-zero
/// either way.
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
        Some("run") => client_job(rest, "run", RUN),
        Some("search") => client_job(rest, "search", SEARCH),
        Some("trace") => client_job(rest, "trace", TRACE),
        Some("advise") => client_job(rest, "advise", ADVISE),
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

/// Connects, sends one request and returns `(raw line, parsed doc)`. A
/// `"ok":false` reply is printed raw and converted into the silent error
/// (empty message) that makes `main` exit non-zero without the usage
/// dump — scripts branch on the exit code, the line is the report.
fn client_roundtrip(
    args: &Args,
    max_frame: usize,
    request: &str,
) -> Result<(String, JsonValue), String> {
    let (addr, mut client) = client_connect(args, max_frame)?;
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

/// An `f64` response field, defaulting to 0 — display only.
fn jf(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// A string response field, `?` when absent — display only.
fn js<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// A boolean response field, `false` when absent — display only.
fn jb(doc: &JsonValue, key: &str) -> bool {
    doc.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
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
    let (response, _doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request)?;
    println!("{response}");
    Ok(())
}

/// `client ping` / `client shutdown`: one command word, no payload.
fn client_simple(argv: &[String], name: &'static str) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &[])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object(cmd(name)).render();
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request)?;
    let addr = args.get("addr").unwrap_or("?");
    if json {
        println!("{response}");
    } else if name == "ping" {
        println!("{addr}: ok (protocol {})", ju(&doc, "protocol"));
    } else {
        println!("{addr}: draining");
    }
    Ok(())
}

/// `client status`: the daemon's live state as a human table (or the
/// raw response with `--format json`).
fn client_status(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["addr", "format"], &[])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object(cmd("status")).render();
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    println!(
        "daemon {}  protocol {}  uptime {} ms{}",
        args.get("addr").unwrap_or("?"),
        ju(&doc, "protocol"),
        ju(&doc, "uptime_ms"),
        if jb(&doc, "shutting_down") {
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
    let args = Args::parse(argv, &["addr", "format"], &["prom"])?;
    let json = parse_format(&args)?;
    let request = JsonValue::object(cmd("metrics")).render();
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request)?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("metrics response has no result")?;
    let snapshot = spade_bench::metrics::MetricsSnapshot::from_json(result)?;
    if args.has("prom") {
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

/// A catalog row's plan, compactly: `rp=… cp=…`, ` b` with barriers.
fn plan_note(plan: Option<&JsonValue>) -> String {
    match plan {
        None | Some(JsonValue::Null) => "-".to_string(),
        Some(p) => format!(
            "rp={} cp={}{}",
            ju(p, "row_panel_size"),
            ju(p, "col_panel_size"),
            if jb(p, "barriers") { " b" } else { "" }
        ),
    }
}

/// `client query`: filter the daemon's cache dataset. Every filter flag
/// is optional; matches come back sorted by (benchmark, kernel,
/// cycles), so the first row per benchmark is its best plan.
fn client_query(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, QUERY, &["addr", "format"], &[])?;
    let json = parse_format(&args)?;
    let request = request_doc(cmd("query"), QUERY, &args)?;
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request.render())?;
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
        println!(
            "{:<7} {:<6} {:<6} {:>5} {:>5} {:>12} {:>10}  {:<18} {}",
            js(e, "kind"),
            js(e, "benchmark"),
            js(e, "kernel"),
            ju(e, "k"),
            ju(e, "pes"),
            ju(e, "cycles"),
            ju(e, "dram_accesses"),
            plan_note(e.get("plan")),
            js(e, "key")
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
    let args = parse_args(
        argv,
        BATCH,
        &["addr", "format", "benchmarks", "kernels", "k", "pes"],
        &[],
    )?;
    let json = parse_format(&args)?;
    let benchmarks = args.get("benchmarks").ok_or("--benchmarks is required")?;
    let mut sweep: Vec<(&str, JsonValue)> = vec![(
        "benchmarks",
        JsonValue::Array(
            comma_list("benchmarks", benchmarks)?
                .into_iter()
                .map(JsonValue::from)
                .collect(),
        ),
    )];
    if let Some(v) = args.get("kernels") {
        let kernels = comma_list("kernels", v)?;
        sweep.push((
            "kernels",
            JsonValue::Array(kernels.into_iter().map(JsonValue::from).collect()),
        ));
    }
    for flag in ["k", "pes"] {
        if let Some(v) = args.get(flag) {
            sweep.push((flag, JsonValue::Array(comma_list_u64(flag, v)?)));
        }
    }
    let mut head = cmd("batch");
    head.push(("sweep", JsonValue::object(sweep)));
    let request = request_doc(head, BATCH, &args)?;
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request.render())?;
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
        if jb(job, "ok") {
            let r = job.get("result").ok_or("batch job has no result")?;
            let report = r.get("report").ok_or("batch job has no report")?;
            let cached = if jb(job, "cached") { " (cached)" } else { "" };
            println!(
                "  [{index}] {} {} k={} pes={}: {} cycles, {} DRAM accesses{cached}",
                js(r, "benchmark"),
                js(r, "kernel"),
                ju(r, "k"),
                ju(r, "pes"),
                ju(report, "cycles"),
                ju(report, "dram_accesses")
            );
        } else {
            let error = job.get("error").unwrap_or(&JsonValue::Null);
            println!(
                "  [{index}] error {}: {}",
                js(error, "kind"),
                js(error, "message")
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
fn client_agg(argv: &[String], preset_group_by: Option<&'static str>) -> Result<(), String> {
    let args = parse_args(argv, QUERY, &["addr", "format", "group-by"], &[])?;
    let json = parse_format(&args)?;
    let group_by = match (args.get("group-by"), preset_group_by) {
        (Some(v), _) => v,
        (None, Some(preset)) => preset,
        (None, None) => return Err("--group-by is required (benchmark|kernel|pes)".into()),
    };
    let mut head = cmd("query");
    head.push(("group_by", group_by.into()));
    if preset_group_by.is_some() && args.get("kind").is_none() {
        head.push(("kind", "run".into()));
    }
    let request = request_doc(head, QUERY, &args)?;
    let (response, doc) = client_roundtrip(&args, MAX_FRAME_BYTES, &request.render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("agg response has no result")?;
    println!(
        "group_by {}: {} groups over {} matched of {} cached entries",
        js(result, "group_by"),
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
        let best = g.get("best").unwrap_or(&JsonValue::Null);
        println!(
            "{:<10} {:>5} {:>12} {:>12} {:>14.1}  {:<18} {}",
            js(g, "group"),
            ju(g, "count"),
            ju(g, "min_cycles"),
            ju(g, "max_cycles"),
            jf(g, "mean_cycles"),
            plan_note(best.get("plan")),
            js(best, "key")
        );
    }
    Ok(())
}

/// `client run|search|trace|advise`: the request document the local
/// command executes, sent to the daemon, and the reply printed by the
/// local command's text renderer. A trace response is one long line, so
/// its read limit is raised well past the default; the Chrome trace is
/// written locally, byte-identical to what `spade-cli trace` writes.
fn client_job(argv: &[String], name: &'static str, fields: &[Field]) -> Result<(), String> {
    let mut fields = fields.to_vec();
    let mut values = vec!["addr", "format"];
    match name {
        "advise" => {}
        "trace" => {
            fields.push(NO_CACHE);
            values.push("out");
        }
        _ => fields.push(NO_CACHE),
    }
    let args = parse_args(argv, &fields, &values, &[])?;
    let json = parse_format(&args)?;
    let request = request_doc(cmd(name), &fields, &args)?;
    let max_frame = if name == "trace" {
        256 << 20
    } else {
        MAX_FRAME_BYTES
    };
    let (response, doc) = client_roundtrip(&args, max_frame, &request.render())?;
    if json {
        println!("{response}");
        return Ok(());
    }
    let result = doc.get("result").ok_or("response has no result")?;
    let note = format!(
        "{}, key {}",
        if jb(&doc, "cached") {
            "cached"
        } else {
            "fresh"
        },
        doc.get("key").and_then(JsonValue::as_str).unwrap_or("-")
    );
    match name {
        "run" => print_run(result, Some(&note)),
        "search" => print_search(result, Some(&note)),
        "advise" => print_advice(result),
        _ => {
            // Re-rendering the parsed value reproduces the daemon's exact
            // bytes: the codec's render∘parse fixpoint is pinned by the
            // json fuzz suite.
            let trace = result.get("trace").ok_or("trace response has no trace")?;
            return write_trace(result, &trace.render(), args.get("out"), Some(&note));
        }
    }
    Ok(())
}

/// The suite shape `bench-perf` and `bench-advise` run at, validated like
/// a request's `scale`, `k` and `pes`.
fn suite_shape(args: &Args) -> Result<(Scale, usize, usize), String> {
    let doc = request_doc(vec![], SUITE, args)?;
    Ok((
        request::parse_scale(&doc)?,
        request::parse_k(&doc)?,
        request::parse_pes(&doc)?,
    ))
}

/// `bench-perf`: measures simulator host throughput under the event-driven
/// scheduler and the naive tick-loop oracle across the Figure 9 suite, one
/// run at a time, then merges the machine-readable summary into the bench
/// file (default `BENCH_sim.json`), keeping the `bench_advise` section.
/// The run doubles as an equivalence check: it fails if the two drivers
/// disagree on any simulated metric. `--gate-speedup` turns the run into
/// a regression gate: the command fails (after writing the summary) when
/// the geomean event-driver speedup falls below the given floor.
fn bench_perf(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv, SUITE, &["out", "gate-speedup"], &[])?;
    let (scale, k, pes) = suite_shape(&args)?;
    let gate_speedup: f64 = args.get_parsed("gate-speedup", 0.0)?;
    let out = args.get("out").unwrap_or("BENCH_sim.json").to_string();
    let host_start = Instant::now();
    let summary = spade_bench::perf::run_suite_perf(scale, k, pes)?;
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
        "geomean: event {:.3e} cyc/s, naive {:.3e} cyc/s, speedup {:.2}x (1 worker, {:.1}s host)",
        summary.geomean_event_cps(),
        summary.geomean_naive_cps(),
        summary.geomean_speedup(),
        host_start.elapsed().as_secs_f64()
    );
    let merged = merge_bench_fields(&out, summary.to_json());
    std::fs::write(&out, merged).map_err(|e| format!("{out}: {e}"))?;
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
    let args = parse_args(argv, &[SCALE], &["dataset", "out", "report"], &[])?;
    let dataset_path = args.get("dataset").ok_or("--dataset is required")?;
    let scale = request::parse_scale(&request_doc(vec![], &[SCALE], &args)?)?;
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
            let bench = request::parse_benchmark(entry).ok()?;
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

/// Merges the fields of the object `owned` into the JSON document at
/// `path`: each key `owned` names is replaced or appended, and every
/// other key is kept. `bench-perf` owns its summary fields and
/// `bench-advise` the `bench_advise` section of the same file, so
/// neither run drops the other's numbers. A missing or unparseable file
/// starts a fresh document.
fn merge_bench_fields(path: &str, owned: JsonValue) -> String {
    let mut fields: Vec<(String, JsonValue)> = match std::fs::read_to_string(path)
        .ok()
        .and_then(|t| JsonValue::parse(&t).ok())
    {
        Some(JsonValue::Object(fields)) => fields,
        _ => Vec::new(),
    };
    let JsonValue::Object(owned) = owned else {
        unreachable!("bench summaries are JSON objects")
    };
    for (key, value) in owned {
        match fields.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => fields.push((key, value)),
        }
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
    let args = parse_args(
        argv,
        SUITE,
        &[
            "out",
            "model-out",
            "report-out",
            "gate-advise-speedup",
            "gate-advise-quality",
        ],
        &[],
    )?;
    let (scale, k, pes) = suite_shape(&args)?;
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
    let merged = merge_bench_fields(&out, JsonValue::object([("bench_advise", bench.to_json())]));
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
    use spade_matrix::Coo;

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
            // Zero means no ceiling, as on the wire.
            "--deadline-cycles",
            "0",
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
            "--format",
            "json",
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
        // The daemon's limits hold locally too.
        let err = dispatch(&argv(&["run", "--benchmark", "kro", "--pes", "2048"])).unwrap_err();
        assert!(err.contains("exceeds the service limit"), "{err}");
        let err = dispatch(&argv(&["run", "--benchmark", "kro", "--k", "8192"])).unwrap_err();
        assert!(err.contains("exceeds the service limit"), "{err}");
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
        // A `bench_advise` section from an earlier `bench-advise` run is
        // not the perf summary's to drop.
        std::fs::write(
            &path,
            r#"{"geomean_speedup":0,"bench_advise":{"geomean_quality":1.5}}"#,
        )
        .unwrap();
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
        let doc = JsonValue::parse(&text).unwrap();
        let advise = doc.get("bench_advise").expect("bench_advise survives");
        assert_eq!(advise.render(), r#"{"geomean_quality":1.5}"#);
        // The summary's own keys are replaced.
        let speedup = doc.get("geomean_speedup").and_then(JsonValue::as_f64);
        assert!(speedup.is_some_and(|s| s > 0.0), "{speedup:?}");
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
        // `--json` was a second spelling of `--format json`.
        let err = dispatch(&argv(&["run", "--benchmark", "myc", "--json"])).unwrap_err();
        assert!(err.contains("'--json'"), "{err}");
        // `advise --fast` was the default spelled out, and `--exhaustive`
        // what `--exact` without `--model` already does.
        for flag in ["--fast", "--exhaustive"] {
            let err =
                dispatch(&argv(&["advise", "--benchmark", "myc", "--exact", flag])).unwrap_err();
            assert!(err.contains(&format!("'{flag}'")), "{err}");
        }
        // A search reads no kernel or plan knobs, locally or on the wire.
        for client in [false, true] {
            for flag in [
                &["--kernel", "sddmm"][..],
                &["--rp", "4"],
                &["--cp", "all"],
                &["--rmatrix", "victim"],
                &["--barriers"],
            ] {
                let mut args = if client {
                    argv(&["client", "search", "--addr", "127.0.0.1:1"])
                } else {
                    argv(&["search"])
                };
                args.extend(argv(&["--benchmark", "myc"]));
                args.extend(argv(flag));
                let err = dispatch(&args).unwrap_err();
                assert!(err.contains(&format!("'{}'", flag[0])), "{err}");
            }
        }
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
        ]))
        .unwrap();
    }

    #[test]
    fn repeated_flags_fail_by_name() {
        let err = dispatch(&argv(&[
            "run",
            "--benchmark",
            "myc",
            "--benchmark",
            "kro",
            "--k",
            "16",
            "--pes",
            "4",
        ]))
        .unwrap_err();
        assert_eq!(err, "flag '--benchmark' given twice");
        // `trace`'s positional name is its `--benchmark`.
        let err = dispatch(&argv(&["trace", "myc", "--benchmark", "kro"])).unwrap_err();
        assert_eq!(err, "flag '--benchmark' given twice");
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
