//! The `serve` workload: a `spade-cli serve` daemon (release binary,
//! default flags, a fresh `--cache-dir`, port 0) driven over loopback by
//! two client threads in a closed loop with zero think time.
//!
//! The traced run adds the daemon's `--log-json` request spans, joined to
//! the client's spans, and an in-process replay of the start of the same
//! schedule through the public calls the connection thread and the
//! workers make (parse, prepare, key, probe, simulate, render, store).

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spade_bench::cache::ResultCache;
use spade_bench::metrics::MetricsSnapshot;
use spade_bench::parallel::{Job, ParallelRunner};
use spade_bench::service::{canonical_report, plan_json, ServiceConfig};
use spade_bench::suite::Workload;
use spade_core::advisor::advise_tiered;
use spade_core::{
    BarrierPolicy, CMatrixPolicy, ExecutionPlan, Primitive, RMatrixPolicy, RunReport, SystemConfig,
};
use spade_matrix::analysis::MatrixFeatures;
use spade_matrix::generators::Scale;
use spade_matrix::TilingConfig;
use spade_sim::JsonValue;

use crate::host;
use crate::inputs::{self, Request, RunSpec, ROUND_LEN};
use crate::metrics::{self, Outcome};
use crate::sim;
use crate::spans::{self, Recorder, Span};
use crate::Run;

/// Client threads (and connections) of the closed loop.
const CLIENTS: usize = 2;
/// Protocol defaults every request relies on.
const K: usize = 32;
const PES: usize = 56;
/// Daemon set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Schedule rounds the traced run replays in-process.
const REPLAY_ROUNDS: usize = 4;

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    fn start(bin: &Path, cache_dir: &Path, log_json: bool) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(cache_dir);
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(if log_json {
                Stdio::piped()
            } else {
                Stdio::inherit()
            });
        if log_json {
            cmd.arg("--log-json");
        }
        let mut child = cmd.spawn().map_err(|e| format!("{}: {e}", bin.display()))?;
        let log = child.stderr.take().map(|stderr| {
            std::thread::spawn(move || {
                BufReader::new(stderr)
                    .lines()
                    .map_while(Result::ok)
                    .collect()
            })
        });
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout,
            log,
        };
        let mut banner = String::new();
        daemon
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("daemon banner: {e}"))?;
        daemon.addr = JsonValue::parse(banner.trim())
            .ok()
            .and_then(|d| {
                d.get("serving")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon banner not understood: {banner:?}"))?;
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// In-band shutdown, then wait for the drain; returns the log lines.
    fn stop(mut self) -> Result<Vec<String>, String> {
        let reply = Conn::open(self.addr)
            .and_then(|mut c| c.call("{\"cmd\":\"shutdown\"}"))
            .map_err(|e| format!("shutdown request: {e}"))?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not drain within 20 s".into()),
            }
        }
        Ok(self
            .log
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

/// One client connection: a request line out, a reply line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// A reply envelope: the parsed document plus the raw `result` bytes,
/// which the daemon splices in verbatim.
struct Reply {
    doc: JsonValue,
    result_raw: Option<String>,
}

impl Reply {
    fn parse(line: &str) -> Result<Reply, String> {
        let doc = JsonValue::parse(line).map_err(|e| format!("reply is not JSON ({e}): {line}"))?;
        let result_raw = line
            .find(",\"result\":")
            .filter(|_| line.ends_with('}'))
            .map(|pos| line[pos + 10..line.len() - 1].to_string());
        Ok(Reply { doc, result_raw })
    }

    fn ok(&self) -> Result<(), String> {
        if self.doc.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(format!("error reply: {}", self.doc.render()))
        }
    }

    fn cached(&self) -> Option<bool> {
        self.doc.get("cached").and_then(JsonValue::as_bool)
    }

    fn key(&self) -> Option<&str> {
        self.doc.get("key").and_then(JsonValue::as_str)
    }

    fn error_kind(&self) -> Option<&str> {
        self.doc.get("error")?.get("kind")?.as_str()
    }
}

/// The execution plan the daemon builds for `spec` (its wire-plan
/// parser: the base plan with the request's overrides).
fn wire_plan(spec: &RunSpec, a: &spade_matrix::Coo) -> Result<ExecutionPlan, String> {
    let mut plan = ExecutionPlan::spmm_base(a).map_err(|e| e.to_string())?;
    let rp = spec.rp.unwrap_or(plan.tiling.row_panel_size);
    let cp = spec.cp.unwrap_or(plan.tiling.col_panel_size);
    plan.tiling = TilingConfig::new(rp, cp).map_err(|e| e.to_string())?;
    plan.r_policy = match spec.rmatrix {
        "bypass" => RMatrixPolicy::Bypass,
        "victim" => RMatrixPolicy::BypassVictim,
        _ => RMatrixPolicy::Cache,
    };
    plan.c_policy = CMatrixPolicy::Cache;
    if spec.barriers {
        plan.barriers = BarrierPolicy::per_column_panel();
    }
    Ok(plan)
}

/// The job the daemon builds for `spec`: its default deadline is part of
/// the job, and so of the cache key.
fn daemon_job(
    w: &Arc<Workload>,
    config: &Arc<SystemConfig>,
    spec: &RunSpec,
    plan: ExecutionPlan,
) -> Job {
    Job::new(w, config, primitive(spec), plan)
        .with_deadline_cycles(ServiceConfig::default().default_deadline_cycles)
}

fn primitive(spec: &RunSpec) -> Primitive {
    if spec.sddmm {
        Primitive::Sddmm
    } else {
        Primitive::Spmm
    }
}

/// The `run` result document the daemon renders for a finished job.
fn run_result(spec: &RunSpec, plan: &ExecutionPlan, report: &RunReport) -> String {
    JsonValue::object([
        ("benchmark", spec.bench.short_name().into()),
        ("kernel", primitive(spec).to_string().into()),
        ("k", K.into()),
        ("pes", PES.into()),
        ("plan", plan_json(plan)),
        ("report", canonical_report(report).to_json()),
    ])
    .render()
}

/// A key stored during set-up: its cache key and cold result bytes.
#[derive(PartialEq)]
struct Stored {
    key: String,
    result: String,
}

/// Stores every pre-warm key through two persistent connections.
fn prewarm(addr: SocketAddr, specs: &[RunSpec]) -> Result<Vec<Stored>, String> {
    let next = AtomicUsize::new(0);
    let store = |conn: &mut Conn, i: usize| -> Result<Stored, String> {
        let line = conn
            .call(&specs[i].line(i as u64))
            .map_err(|e| e.to_string())?;
        let r = Reply::parse(&line)?;
        r.ok()?;
        let (cached, key) = (r.cached(), r.key().map(str::to_string));
        match (cached, key, r.result_raw) {
            (Some(false), Some(key), Some(result)) => Ok(Stored { key, result }),
            _ => Err(format!("pre-warm reply is not a fresh store: {line}")),
        }
    };
    let parts: Vec<Result<Vec<(usize, Stored)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            return Ok(done);
                        }
                        done.push((i, store(&mut conn, i)?));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut stored: Vec<(usize, Stored)> = Vec::new();
    for part in parts {
        stored.extend(part?);
    }
    stored.sort_by_key(|(i, _)| *i);
    Ok(stored.into_iter().map(|(_, s)| s).collect())
}

/// Starts a daemon and stores the pre-warm keys: the set-up `setup_s`
/// times.
fn set_up(
    run: &Run,
    dir: &Path,
    log_json: bool,
    specs: &[RunSpec],
) -> Result<(Daemon, Vec<Stored>, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start(&run.daemon()?, dir, log_json)?;
    let stored = prewarm(daemon.addr, specs)?;
    Ok((daemon, stored, t.elapsed().as_secs_f64()))
}

/// Recomputes every pre-warm result in-process — the same workload,
/// plan and machine the daemon builds, simulated through the layers with
/// the benchmark's own gold check — and compares the bytes the daemon
/// stored.
fn verify_prewarm(out: &mut Outcome, specs: &[RunSpec], stored: &[Stored]) -> Vec<RunReport> {
    let origin = Instant::now();
    let config = Arc::new(SystemConfig::scaled(PES));
    let results = ParallelRunner::new(CLIENTS).run_tasks(specs.len(), |i| sim::no_retry(|| {
        let spec = &specs[i];
        let w = Arc::new(Workload::prepare(spec.bench, Scale::Tiny, K));
        let plan = wire_plan(spec, &w.a)?;
        let job = daemon_job(&w, &config, spec, plan);
        let mut rec = Recorder::new(origin, 0);
        let (report, _) = sim::traced_job(&mut rec, i as u64, &job)?;
        let result = run_result(spec, &plan, &report);
        if job.cache_key() != stored[i].key {
            return Err(format!("{}: the daemon stored it under another key", spec.line(0)));
        }
        if result != stored[i].result {
            return Err(format!(
                "{}: stored result differs from in-process simulation:\n  daemon     {}\n  in-process {result}",
                spec.line(0),
                stored[i].result
            ));
        }
        Ok(report)
    }));
    let mut reports = Vec::new();
    for r in results {
        out.check(r.map(|report| reports.push(report)).map_err(|e| e.message));
    }
    reports
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hit,
    Miss,
    Advise,
    Query,
}

/// One request of the closed loop, as the client saw it.
struct Sample {
    index: usize,
    /// Client thread (trace lane) that sent it.
    lane: u32,
    class: Class,
    fresh: bool,
    start_ns: u64,
    connect_ns: u64,
    end_ns: u64,
    check: Result<(), String>,
    /// Simulated cycles of a miss's result.
    cycles: u64,
    key: Option<String>,
    /// A miss's result bytes, for the traced run's replay to compare.
    result: Option<String>,
    rejected: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Loop {
    samples: Vec<Sample>,
    wall_s: f64,
    start_ns: u64,
    end_ns: u64,
}

/// Runs the schedule in a closed loop for `seconds` on two client
/// threads; each holds one persistent connection and opens a fresh one
/// for each `fresh` request.
fn closed_loop(
    addr: SocketAddr,
    schedule: &[Request],
    stored: &[Stored],
    seconds: f64,
    origin: Instant,
) -> Loop {
    let specs = inputs::prewarm_keys();
    let next = AtomicUsize::new(0);
    let misses_sent = AtomicUsize::new(0);
    let misses_done = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let client = |lane: u32| {
        let mut samples = Vec::new();
        let mut conn = Conn::open(addr);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= schedule.len() || Instant::now() >= deadline {
                return samples;
            }
            let (class, fresh, line) = match &schedule[i] {
                Request::Hit { key, fresh } => (Class::Hit, *fresh, specs[*key].line(i as u64)),
                Request::Miss(spec) => {
                    misses_sent.fetch_add(1, Ordering::SeqCst);
                    (Class::Miss, false, spec.line(i as u64))
                }
                Request::Advise(b) => (
                    Class::Advise,
                    false,
                    format!(
                        "{{\"cmd\":\"advise\",\"id\":{i},\"benchmark\":\"{}\"}}",
                        b.short_name()
                    ),
                ),
                Request::Query(g) => (
                    Class::Query,
                    false,
                    format!("{{\"cmd\":\"query\",\"id\":{i},\"group_by\":\"{g}\"}}"),
                ),
            };
            let floor = stored.len() + misses_done.load(Ordering::SeqCst);
            let t0 = Instant::now();
            let (reply, t_conn) = if fresh {
                let c = Conn::open(addr);
                let t_conn = Instant::now();
                (c.and_then(|mut c| c.call(&line)), t_conn)
            } else {
                let reply = match conn.as_mut() {
                    Ok(c) => c.call(&line),
                    Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                };
                (reply, t0)
            };
            let t1 = Instant::now();
            let ceiling = stored.len() + misses_sent.load(Ordering::SeqCst);
            let mut sample = Sample {
                index: i,
                lane,
                class,
                fresh,
                start_ns: ns(t0),
                connect_ns: ns(t_conn),
                end_ns: ns(t1),
                check: Ok(()),
                cycles: 0,
                key: None,
                result: None,
                rejected: false,
            };
            let parsed = reply
                .map_err(|e| format!("request {i}: {e}"))
                .and_then(|l| Reply::parse(&l));
            sample.check = parsed.and_then(|r| {
                sample.rejected = r.error_kind() == Some("overloaded");
                r.ok()?;
                sample.key = r.key().map(str::to_string);
                if class == Class::Miss {
                    sample.result = r.result_raw.clone();
                }
                match &schedule[i] {
                    Request::Hit { key, .. } => check_hit(&r, &stored[*key]),
                    Request::Miss(spec) => {
                        sample.cycles = check_miss(&r, spec)?;
                        misses_done.fetch_add(1, Ordering::SeqCst);
                        Ok(())
                    }
                    Request::Advise(_) => check_advise(&r),
                    Request::Query(_) => check_query(&r, floor, ceiling),
                }
                .map_err(|e| format!("request {i}: {e}"))
            });
            samples.push(sample);
        }
    };
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CLIENTS as u32)
            .map(|lane| s.spawn(move || client(lane)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = Instant::now();
    samples.sort_by_key(|s| s.index);
    Loop {
        samples,
        wall_s: end.duration_since(start).as_secs_f64(),
        start_ns: ns(start),
        end_ns: ns(end),
    }
}

/// A hit must serve the bytes the cold request stored, under its key.
fn check_hit(r: &Reply, want: &Stored) -> Result<(), String> {
    match (r.cached(), r.key(), &r.result_raw) {
        (Some(true), Some(key), Some(result)) if key == want.key && *result == want.result => {
            Ok(())
        }
        (Some(true), ..) => Err("hit served bytes other than the stored result".into()),
        _ => Err("pre-warmed key was not served from the cache".into()),
    }
}

/// A miss must be a fresh, stored simulation of the requested job.
fn check_miss(r: &Reply, spec: &RunSpec) -> Result<u64, String> {
    if r.cached() != Some(false) || r.key().is_none() {
        return Err("never-stored key was not simulated".into());
    }
    let result = r.doc.get("result").ok_or("no result")?;
    let kernel = primitive(spec).to_string();
    if result.get("benchmark").and_then(JsonValue::as_str) != Some(spec.bench.short_name())
        || result.get("kernel").and_then(JsonValue::as_str) != Some(kernel.as_str())
    {
        return Err("result names another job".into());
    }
    match result
        .get("report")
        .and_then(|rep| rep.get("cycles"))
        .and_then(JsonValue::as_u64)
    {
        Some(cycles) if cycles > 0 => Ok(cycles),
        _ => Err("result carries no simulated cycles".into()),
    }
}

/// Advice must name a plan.
fn check_advise(r: &Reply) -> Result<(), String> {
    let plan = r.doc.get("result").and_then(|res| res.get("plan"));
    match plan
        .and_then(|p| p.get("row_panel_size"))
        .and_then(JsonValue::as_u64)
    {
        Some(rp) if rp > 0 => Ok(()),
        _ => Err("advice names no plan".into()),
    }
}

/// A grouped query must count what was stored: every key stored before
/// it was sent and at most the misses sent before its reply, with the
/// groups adding up to the total.
fn check_query(r: &Reply, floor: usize, ceiling: usize) -> Result<(), String> {
    let res = r.doc.get("result").ok_or("no result")?;
    let total = res
        .get("total")
        .and_then(JsonValue::as_u64)
        .ok_or("no total")? as usize;
    let matched = res
        .get("matched")
        .and_then(JsonValue::as_u64)
        .ok_or("no matched")? as usize;
    let grouped: u64 = res
        .get("groups")
        .and_then(JsonValue::as_array)
        .ok_or("no groups")?
        .iter()
        .filter_map(|g| g.get("count").and_then(JsonValue::as_u64))
        .sum();
    if total < floor || total > ceiling || matched != total || grouped as usize != total {
        return Err(format!(
            "query counted {total} (matched {matched}, grouped {grouped}); stored between {floor} and {ceiling}"
        ));
    }
    Ok(())
}

/// Counts every sample's check and prints the per-class summary.
fn check_samples(out: &mut Outcome, lp: &Loop) {
    for s in &lp.samples {
        out.check(s.check.clone());
    }
    for class in [Class::Hit, Class::Miss, Class::Advise, Class::Query] {
        let ms: Vec<f64> = lp
            .samples
            .iter()
            .filter(|s| s.class == class)
            .map(Sample::ms)
            .collect();
        println!(
            "  {class:?}: {} requests, median {:.3} ms",
            ms.len(),
            metrics::median(&ms)
        );
    }
}

/// Length of the windows the loop is cut into to tell the stretches in
/// which the hypervisor took CPU time away from the rest.
const WINDOW_NS: u64 = 1_000_000_000;

/// Seconds stolen in a one-second window that still count as none: one
/// tick of the counter.
const QUIET_STEAL_S: f64 = 0.01;

/// Fewest requests the metrics are taken over: enough for 20 beyond the
/// 99th percentile.
const MIN_POOL: usize = 2000;

/// The requests a run's metrics are taken over: those that started in the
/// least-stolen windows of the loop.
struct Pool<'a> {
    samples: Vec<&'a Sample>,
    /// Seconds the kept windows span.
    secs: f64,
    kept: usize,
    windows: usize,
    /// Most seconds stolen in a kept window.
    cut_s: f64,
    stolen_s: f64,
}

/// Cuts the loop into one-second windows and keeps every window in which
/// the hypervisor stole nothing (at most [`QUIET_STEAL_S`]), then, while
/// the kept windows hold fewer than [`MIN_POOL`] requests, the
/// least-stolen of the others. The requests that started in kept windows
/// form the pool. The choice reads the host's steal counter, never the
/// latencies; when nothing was stolen, every window is kept.
fn steady_pool<'a>(lp: &'a Loop, steal: &[host::ProbeSample]) -> Pool<'a> {
    let span = (lp.end_ns - lp.start_ns).max(1);
    let k = ((span / WINDOW_NS) as usize).max(1);
    let edge = |i: usize| lp.start_ns + (u128::from(span) * i as u128 / k as u128) as u64;
    let window = |t: u64| {
        let i = u128::from(t.saturating_sub(lp.start_ns)) * k as u128 / u128::from(span);
        (i as usize).min(k - 1)
    };
    let stolen: Vec<f64> = (0..k)
        .map(|i| host::stolen_between(steal, edge(i), edge(i + 1)))
        .collect();
    let mut requests = vec![0usize; k];
    for s in &lp.samples {
        requests[window(s.start_ns)] += 1;
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]).then(a.cmp(&b)));
    let (mut keep, mut pooled, mut cut_s) = (vec![false; k], 0, 0.0f64);
    for i in order {
        if stolen[i] > QUIET_STEAL_S && pooled >= MIN_POOL {
            break;
        }
        keep[i] = true;
        pooled += requests[i];
        cut_s = cut_s.max(stolen[i]);
    }
    let kept = keep.iter().filter(|&&k| k).count();
    Pool {
        samples: lp
            .samples
            .iter()
            .filter(|s| keep[window(s.start_ns)])
            .collect(),
        secs: span as f64 / 1e9 * kept as f64 / k as f64,
        kept,
        windows: k,
        cut_s,
        stolen_s: stolen.iter().sum(),
    }
}

fn class_ms(lp: &Loop, f: impl Fn(&Sample) -> bool) -> Vec<f64> {
    lp.samples.iter().filter(|s| f(s)).map(Sample::ms).collect()
}

fn schedule_for(run: &Run) -> Vec<Request> {
    // Enough rounds for 500 requests/s, three times today's rate; the loop
    // stops at the deadline or at the end of the schedule.
    let rounds = (run.seconds * 500.0 / ROUND_LEN as f64).ceil() as usize + 1;
    inputs::serve_schedule(run.seed, rounds)
}

fn print_outputs(seed: u64, stored: &[Stored], reports: &[RunReport]) {
    let mut digest = host::FNV_OFFSET;
    for s in stored {
        digest = host::fnv(digest, s.result.as_bytes());
    }
    println!(
        "outputs serve seed={seed} prewarm_keys={} digest={digest:016x} system.sim_cycles={} system.vops={} dram.accesses={}",
        stored.len(),
        reports.iter().map(|r| r.cycles).sum::<u64>(),
        reports.iter().map(|r| r.total_vops).sum::<u64>(),
        reports.iter().map(|r| r.dram_accesses).sum::<u64>(),
    );
}

pub fn untraced(run: &Run) -> Result<Outcome, String> {
    let specs = inputs::prewarm_keys();
    let schedule = schedule_for(run);
    let origin = Instant::now();
    let probe = host::HostProbe::start(origin);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let mut stored: Vec<Stored> = Vec::new();
    for i in 0..SETUPS {
        if let Some(earlier) = daemon.take() {
            earlier.stop()?;
        }
        let (d, s, secs) = set_up(run, &run.scratch.join(format!("cache-{i}")), false, &specs)?;
        setup_s.push(secs);
        if i > 0 {
            out.check(if s == stored {
                Ok(())
            } else {
                Err("pre-warm results differ between daemons".into())
            });
        }
        daemon = Some(d);
        stored = s;
    }
    let setup_end_ns = origin.elapsed().as_nanos() as u64;
    let daemon = daemon.expect("at least one set-up");
    let reports = verify_prewarm(&mut out, &specs, &stored);
    print_outputs(run.seed, &stored, &reports);

    let lp = closed_loop(daemon.addr, &schedule, &stored, run.seconds, origin);
    let samples = probe.finish();
    let peak = host::peak_rss_mb(&daemon.pid())?;
    daemon.stop()?;
    check_samples(&mut out, &lp);
    let pool = steady_pool(&lp, &samples);
    let ms = metrics::sorted(&pool.samples.iter().map(|s| s.ms()).collect::<Vec<_>>());
    let (cycles, miss_s) = pool
        .samples
        .iter()
        .filter(|s| s.class == Class::Miss)
        .fold((0u64, 0.0), |(c, t), s| (c + s.cycles, t + s.ms() / 1e3));
    println!(
        "requests: {} in {:.2} s on {CLIENTS} connections, {:.2} s stolen from the host's CPUs; \
         metrics over {} requests in {} of {} one-second windows (at most {:.2} s stolen each); \
         fail_ratio {}/{}",
        lp.samples.len(),
        lp.wall_s,
        pool.stolen_s,
        pool.samples.len(),
        pool.kept,
        pool.windows,
        pool.cut_s,
        out.failed,
        out.attempted
    );
    out.set("setup_s", metrics::median(&setup_s));
    out.set("req_p50_ms", metrics::quantile(&ms, 0.5));
    out.set("req_p99_ms", metrics::quantile(&ms, 0.99));
    out.set("req_per_s", pool.samples.len() as f64 / pool.secs);
    out.set("sim_mcycles_per_s", cycles as f64 / miss_s / 1e6);
    out.set("peak_rss_mb", peak);
    // Each stretch at the host speed the probe saw during it.
    let speed = |from: u64, to: u64| host::host_speed(host::samples_between(&samples, from, to));
    let (setup_speed, loop_speed) = (speed(0, setup_end_ns), speed(lp.start_ns, lp.end_ns));
    out.print_measured(loop_speed);
    println!("set-ups: wall {setup_s:.3?} s, host speed {setup_speed:.3}");
    out.at_reference_speed(setup_speed, &["setup_s"]);
    out.at_reference_speed(
        loop_speed,
        &["sim_mcycles_per_s", "req_p50_ms", "req_p99_ms", "req_per_s"],
    );
    Ok(out)
}

/// One daemon log line: `rid`, `event`, daemon-clock `t_us`, extras.
struct Event {
    rid: u64,
    event: String,
    t_us: u64,
    doc: JsonValue,
}

fn parse_log(lines: &[String]) -> Vec<Event> {
    lines
        .iter()
        .filter_map(|l| JsonValue::parse(l).ok())
        .filter(|d| d.get("log").and_then(JsonValue::as_str) == Some("spade-serve"))
        .filter_map(|doc| {
            Some(Event {
                rid: doc.get("rid")?.as_u64()?,
                event: doc.get("event")?.as_str()?.to_string(),
                t_us: doc.get("t_us")?.as_u64()?,
                doc,
            })
        })
        .collect()
}

/// The daemon side of one request, from its log events.
#[derive(Default)]
struct DaemonSide {
    events: BTreeMap<String, Event>,
}

impl DaemonSide {
    fn t(&self, event: &str) -> Option<u64> {
        self.events.get(event).map(|e| e.t_us)
    }

    fn field(&self, event: &str, key: &str) -> Option<u64> {
        self.events.get(event)?.doc.get(key)?.as_u64()
    }

    /// Daemon-clock microsecond the frame was received.
    fn received(&self) -> Option<u64> {
        self.t("reply")?
            .checked_sub(self.field("reply", "total_us")?)
    }
}

/// Joins the client's samples to the daemon's request spans: by cache
/// key for `run` requests (the `cache_hit` / `store` events carry it),
/// by command for the rest, in request-id order within each key.
fn join(samples: &[Sample], events: Vec<Event>, first_rid: u64) -> Vec<Option<DaemonSide>> {
    let mut by_rid: BTreeMap<u64, DaemonSide> = BTreeMap::new();
    for e in events.into_iter().filter(|e| e.rid >= first_rid) {
        by_rid
            .entry(e.rid)
            .or_default()
            .events
            .insert(e.event.clone(), e);
    }
    let mut queues: BTreeMap<String, VecDeque<u64>> = BTreeMap::new();
    for (rid, side) in &by_rid {
        let key = ["cache_hit", "store"]
            .iter()
            .find_map(|ev| {
                side.events
                    .get(*ev)?
                    .doc
                    .get("key")?
                    .as_str()
                    .map(str::to_string)
            })
            .or_else(|| {
                side.events
                    .get("request")?
                    .doc
                    .get("cmd")?
                    .as_str()
                    .map(|c| format!("cmd:{c}"))
            });
        if let Some(key) = key {
            queues.entry(key).or_default().push_back(*rid);
        }
    }
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| s.start_ns);
    let mut joined: BTreeMap<usize, DaemonSide> = BTreeMap::new();
    for s in order {
        let key = match s.class {
            Class::Hit | Class::Miss => s.key.clone(),
            Class::Advise => Some("cmd:advise".into()),
            Class::Query => Some("cmd:query".into()),
        };
        if let Some(rid) = key.and_then(|k| queues.get_mut(&k)?.pop_front()) {
            if let Some(side) = by_rid.remove(&rid) {
                joined.insert(s.index, side);
            }
        }
    }
    samples.iter().map(|s| joined.remove(&s.index)).collect()
}

/// Client spans for every sample, with the joined daemon stages as
/// children placed on the client clock.
fn loop_spans(lp: &Loop, sides: &[Option<DaemonSide>], origin_offset_ns: i64) -> Vec<Recorder> {
    let mut lanes: Vec<Recorder> = Vec::new();
    let to_ns = |t_us: u64| (t_us as i64 * 1000 + origin_offset_ns).max(0) as u64;
    let origin = Instant::now();
    for (s, side) in lp.samples.iter().zip(sides) {
        let lane = s.lane as usize;
        while lanes.len() < lane {
            lanes.push(Recorder::new(origin, lanes.len() as u32 + 1));
        }
        let rec = &mut lanes[lane - 1];
        let group = s.index as u64;
        let root = rec.closed("client.request", group, s.start_ns, s.end_ns, None);
        if s.fresh {
            rec.closed(
                "client.connect",
                group,
                s.start_ns,
                s.connect_ns,
                Some(root),
            );
        }
        let Some(side) = side else { continue };
        let (Some(received), Some(reply)) = (side.received(), side.t("reply")) else {
            continue;
        };
        let daemon = rec.closed(
            "service.request",
            group,
            to_ns(received),
            to_ns(reply),
            Some(root),
        );
        let mut stage = |name, from: Option<u64>, to: Option<u64>| {
            if let (Some(a), Some(b)) = (from, to) {
                rec.closed(name, group, to_ns(a), to_ns(b), Some(daemon));
            }
        };
        stage("service.pre_probe", Some(received), side.t("request"));
        stage(
            "cache.probe",
            side.t("request"),
            side.t("cache_hit").or(side.t("enqueue")),
        );
        stage("service.queue_wait", side.t("enqueue"), side.t("execute"));
        stage("service.exec", side.t("execute"), side.t("executed"));
        stage("cache.store", side.t("executed"), side.t("store"));
    }
    lanes
}

/// Replays the first rounds of the schedule in-process through the
/// public calls, against a copy of the pre-warmed cache, and checks each
/// replayed miss against the daemon's reply for the same request.
fn replay(
    out: &mut Outcome,
    rec: &mut Recorder,
    schedule: &[Request],
    lp: &Loop,
    cache_dir: &Path,
) -> Result<Vec<RunReport>, String> {
    let cache =
        ResultCache::open(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let specs = inputs::prewarm_keys();
    let config = Arc::new(SystemConfig::scaled(PES));
    let mut reports = Vec::new();
    let replies: BTreeMap<usize, &Sample> = lp.samples.iter().map(|s| (s.index, s)).collect();
    for (i, req) in schedule.iter().enumerate().take(REPLAY_ROUNDS * ROUND_LEN) {
        let group = i as u64;
        let (spec, miss) = match req {
            Request::Hit { key, .. } => (&specs[*key], false),
            Request::Miss(spec) => (spec, true),
            Request::Advise(b) => {
                let check = rec.span("service.replay", group, |rec| {
                    let a = rec.span("generators.generate", group, |_| b.generate(Scale::Tiny));
                    rec.span("advisor.features", group, |_| MatrixFeatures::compute(&a));
                    let advice = rec.span("advisor.advise", group, |_| {
                        advise_tiered(&a, K, &SystemConfig::scaled(PES), None)
                    });
                    advice.map(|_| ()).map_err(|e| format!("advise: {e}"))
                });
                out.check(check);
                continue;
            }
            Request::Query(_) => continue,
        };
        let line = spec.line(group);
        let check = rec.span("service.replay", group, |rec| -> Result<(), String> {
            rec.span("json.parse", group, |_| JsonValue::parse(&line))?;
            let a = rec.span("generators.generate", group, |_| {
                spec.bench.generate(Scale::Tiny)
            });
            let w = Arc::new(rec.span("suite.prepare", group, |_| {
                Workload::from_matrix(spec.bench.short_name(), a, K)
            }));
            let plan = wire_plan(spec, &w.a)?;
            let job = daemon_job(&w, &config, spec, plan);
            let key = rec.span("cache.key", group, |_| job.cache_key());
            let hit = rec.span("cache.get", group, |_| cache.get(&key));
            match (hit, miss) {
                (Some(_), false) => return Ok(()),
                (Some(_), true) => {
                    return Err(format!("replay {i}: never-stored key was in the cache"))
                }
                (None, false) => return Err(format!("replay {i}: pre-warmed key missing")),
                (None, true) => {}
            }
            rec.span("reference.gold", group, |_| match job.primitive {
                Primitive::Spmm => {
                    w.gold_spmm();
                }
                Primitive::Sddmm => {
                    w.gold_sddmm();
                }
            });
            let (report, _) = sim::traced_job(rec, group, &job)?;
            let result = rec.span("json.render", group, |_| run_result(spec, &plan, &report));
            if let Some(s) = replies.get(&i) {
                if s.check.is_ok() && s.result.as_deref() != Some(result.as_str()) {
                    return Err(format!(
                        "replay {i}: daemon result differs from in-process simulation"
                    ));
                }
            }
            reports.push(report);
            rec.span("cache.put", group, |_| cache.put(&key, result.as_bytes()))
                .map_err(|e| format!("cache put: {e}"))?;
            rec.span("cache.index_flush", group, |_| cache.flush_index())
                .map_err(|e| format!("index flush: {e}"))?;
            Ok(())
        });
        out.check(check);
    }
    Ok(reports)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("file name")))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

fn scrape(addr: SocketAddr) -> Result<MetricsSnapshot, String> {
    let line = Conn::open(addr)
        .and_then(|mut c| c.call("{\"cmd\":\"metrics\"}"))
        .map_err(|e| format!("metrics request: {e}"))?;
    let doc = JsonValue::parse(&line).map_err(|e| format!("metrics reply: {e}"))?;
    MetricsSnapshot::from_json(doc.get("result").ok_or("metrics reply has no result")?)
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name, &[]).unwrap_or(0) as f64
}

pub fn traced(run: &Run) -> Result<(Outcome, Vec<Span>), String> {
    let specs = inputs::prewarm_keys();
    let schedule = schedule_for(run);
    let mut out = Outcome::default();
    let half = (run.seconds / 2.0).max(1.0);

    // Untraced reference loop for the overhead figure.
    let (daemon, stored, _) = set_up(run, &run.scratch.join("cache-untraced"), false, &specs)?;
    let plain = closed_loop(daemon.addr, &schedule, &stored, half, Instant::now());
    daemon.stop()?;
    check_samples(&mut out, &plain);

    let origin = Instant::now();
    let dir = run.scratch.join("cache-traced");
    let (daemon, stored, _) = set_up(run, &dir, true, &specs)?;
    let replay_dir = run.scratch.join("cache-replay");
    copy_dir(&dir, &replay_dir)?;
    let before = scrape(daemon.addr)?;
    let first_rid = specs.len() as u64 + 2;
    let cpu0 = host::cpu_seconds(&daemon.pid())?;
    let lp = closed_loop(daemon.addr, &schedule, &stored, half, origin);
    let cpu = host::cpu_seconds(&daemon.pid())? - cpu0;
    let after = scrape(daemon.addr)?;
    let log = daemon.stop()?;
    check_samples(&mut out, &lp);

    let sides = join(&lp.samples, parse_log(&log), first_rid);
    // Daemon clock → client clock: the smallest shift that starts every
    // daemon span no earlier than its client span.
    let offset_ns = lp
        .samples
        .iter()
        .zip(&sides)
        .filter_map(|(s, d)| Some(s.start_ns as i64 - d.as_ref()?.received()? as i64 * 1000))
        .max()
        .unwrap_or(0);
    let mut recorders = loop_spans(&lp, &sides, offset_ns);
    let mut replay_rec = Recorder::new(origin, CLIENTS as u32 + 1);
    let reports = replay(&mut out, &mut replay_rec, &schedule, &lp, &replay_dir)?;
    recorders.push(replay_rec);
    let spans = spans::merge(recorders);

    let joined: Vec<(&Sample, &DaemonSide)> = lp
        .samples
        .iter()
        .zip(&sides)
        .filter_map(|(s, d)| Some((s, d.as_ref()?)))
        .collect();
    let med = |v: Vec<f64>| metrics::median(&v);
    let us = |a: Option<u64>, b: Option<u64>| Some(b?.checked_sub(a?)? as f64 / 1e3);
    let runs = joined
        .iter()
        .filter(|(s, _)| matches!(s.class, Class::Hit | Class::Miss));
    let pre_probe = med(runs
        .clone()
        .filter_map(|(_, d)| us(d.received(), d.t("request")))
        .collect());
    let executed: Vec<&DaemonSide> = joined
        .iter()
        .map(|(_, d)| *d)
        .filter(|d| d.t("executed").is_some())
        .collect();
    let exec_s: Vec<f64> = executed
        .iter()
        .filter_map(|d| d.field("executed", "exec_us"))
        .map(|u| u as f64 / 1e6)
        .collect();
    let queue = med(executed
        .iter()
        .filter_map(|d| d.field("execute", "queue_wait_us"))
        .map(|u| u as f64 / 1e3)
        .collect());
    let transport = med(joined
        .iter()
        .filter(|(s, _)| s.class == Class::Hit && !s.fresh)
        .filter_map(|(s, d)| Some(s.ms() - d.field("reply", "total_us")? as f64 / 1e3))
        .collect());
    let hit_ms = |fresh: bool| med(class_ms(&lp, |s| s.class == Class::Hit && s.fresh == fresh));
    let class_p50 = |class: Class| med(class_ms(&lp, |s| s.class == class));
    let count = |f: &dyn Fn(&Sample) -> bool| lp.samples.iter().filter(|s| f(s)).count() as f64;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let (hits, misses) = (
        delta("spade_cache_hits_total"),
        delta("spade_cache_misses_total"),
    );
    let exec_failed = executed
        .iter()
        .filter(|d| {
            d.events["executed"]
                .doc
                .get("ok")
                .and_then(JsonValue::as_bool)
                != Some(true)
        })
        .count() as f64;
    let exec_ms = med(exec_s.iter().map(|s| s * 1e3).collect());
    let serve_only = [
        ("service.pre_probe_ms", pre_probe),
        ("service.queue_wait_ms", queue),
        ("service.exec_ms", exec_ms),
        ("service.transport_ms", transport),
        ("service.fresh_conn_ms", hit_ms(true) - hit_ms(false)),
        ("service.hit_p50_ms", class_p50(Class::Hit)),
        ("service.miss_p50_ms", class_p50(Class::Miss)),
        ("service.rejected", count(&|s| s.rejected)),
        ("service.errors", count(&|s| s.check.is_err())),
        (
            "service.joined_ratio",
            joined.len() as f64 / lp.samples.len().max(1) as f64,
        ),
        ("parallel.failed", exec_failed),
        ("cache.get_ms", spans::mean_ms(&spans, "cache.get")),
        ("cache.put_ms", spans::mean_ms(&spans, "cache.put")),
        (
            "cache.index_flush_ms",
            spans::mean_ms(&spans, "cache.index_flush"),
        ),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.stores", delta("spade_cache_stores_total")),
        ("cache.hit_ratio", hits / (hits + misses).max(1.0)),
        (
            "advisor.features_ms",
            spans::mean_ms(&spans, "advisor.features"),
        ),
        (
            "advisor.advise_ms",
            spans::mean_ms(&spans, "advisor.advise"),
        ),
    ];
    for (name, value) in serve_only {
        let unit = match name {
            n if n.ends_with("_ms") => "ms",
            n if n.ends_with("_ratio") => "ratio",
            _ => "count",
        };
        println!("layer {name} {value:.4} {unit}");
    }

    sim::report_metrics(&mut out, &reports);
    sim::span_metrics(&mut out, &spans);
    out.set("parallel.jobs", exec_s.len() as f64);
    out.set("parallel.busy_s", exec_s.iter().sum());
    out.set(
        "parallel.utilization",
        exec_s.iter().sum::<f64>() / (lp.wall_s * host::host_cores() as f64),
    );
    out.set(
        "parallel.max_job_s",
        exec_s.iter().copied().fold(0.0, f64::max),
    );
    out.set("process.cpu_s", cpu);
    out.set(
        "process.cpu_util",
        cpu / (lp.wall_s * host::host_cores() as f64),
    );
    out.set(
        "trace.coverage",
        spans::coverage(&spans, lp.start_ns, lp.end_ns),
    );
    let rate = |l: &Loop| l.samples.len() as f64 / l.wall_s;
    out.set(
        "trace.overhead_pct",
        (rate(&plain) / rate(&lp) - 1.0) * 100.0,
    );
    println!(
        "trace: untraced loop {:.1} req/s, traced loop {:.1} req/s; daemon spans joined for {} of {} requests",
        rate(&plain),
        rate(&lp),
        joined.len(),
        lp.samples.len()
    );
    Ok((out, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(i: usize, start_ns: u64, ms: u64) -> Sample {
        Sample {
            index: i,
            lane: 1,
            class: Class::Hit,
            fresh: false,
            start_ns,
            connect_ns: start_ns,
            end_ns: start_ns + ms * 1_000_000,
            check: Ok(()),
            cycles: 0,
            key: None,
            result: None,
            rejected: false,
        }
    }

    fn probe(t_s: f64, stolen_s: f64) -> host::ProbeSample {
        host::ProbeSample {
            t_ns: (t_s * 1e9) as u64,
            stolen_s,
            burst_s: host::PROBE_NOMINAL_S,
        }
    }

    #[test]
    fn the_pool_keeps_the_quiet_windows_and_tops_up_with_the_least_stolen() {
        // Four one-second windows of 1000 requests each. The hypervisor
        // takes 0.5 s during the third and 0.2 s during the fourth.
        let samples = (0..4000)
            .map(|i| {
                let ms = if (2000..3000).contains(&i) { 90 } else { 5 };
                request(i, i as u64 * 1_000_000, ms)
            })
            .collect();
        let lp = Loop {
            samples,
            wall_s: 4.0,
            start_ns: 0,
            end_ns: 4_000_000_000,
        };
        let counter = |t: f64| match t {
            t if t <= 2.5 => 0.0,
            t if t <= 3.5 => 0.5,
            _ => 0.7,
        };
        let steal: Vec<_> = (0..=40)
            .map(|i| probe(i as f64 / 10.0, counter(i as f64 / 10.0)))
            .collect();
        // Two quiet windows hold MIN_POOL requests: nothing else is kept.
        let pool = steady_pool(&lp, &steal);
        assert_eq!((pool.kept, pool.windows), (2, 4));
        assert_eq!(pool.samples.len(), MIN_POOL);
        assert!(pool.samples.iter().all(|s| s.ms() < 10.0));
        assert_eq!((pool.secs, pool.cut_s), (2.0, 0.0));
        assert!((pool.stolen_s - 0.7).abs() < 1e-12);

        // Only the second window is quiet; the first, with 0.1 s stolen,
        // is the least-stolen other one and tops the pool up.
        let early: Vec<_> = (0..=40)
            .map(|i| {
                let t = i as f64 / 10.0;
                probe(t, counter(t) + if t > 0.5 { 0.1 } else { 0.0 })
            })
            .collect();
        let pool = steady_pool(&lp, &early);
        assert_eq!(pool.kept, 2);
        assert!((pool.cut_s - 0.1).abs() < 1e-12);
        assert!(pool.samples.iter().all(|s| s.ms() < 10.0));

        // Nothing stolen: every window and request is kept.
        let calm: Vec<_> = (0..=40).map(|i| probe(i as f64 / 10.0, 0.0)).collect();
        let pool = steady_pool(&lp, &calm);
        assert_eq!((pool.kept, pool.samples.len()), (4, 4000));
    }
}
