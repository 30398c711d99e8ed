//! `spade-serve`: the always-on experiment daemon.
//!
//! A std-only TCP service speaking newline-delimited JSON (one request
//! per line, one response per line — the [`spade_sim::json`] codec on
//! both sides). Clients submit the same experiments the CLI runs
//! (`run`, `search`, `trace`, `advise`), plus `status`, `ping` and an
//! in-band `shutdown`. [`crate::request`] parses, executes and renders
//! those four for both front ends, so a result is the exact bytes the
//! CLI's `--format json` prints; this module adds framing, admission,
//! the cache probe, the dataset catalog and metrics.
//!
//! # Architecture
//!
//! ```text
//! accept loop ─┬─ connection handler ──┐ try_send   ┌─ worker ─ ParallelRunner
//!              ├─ connection handler ──┤──────────▶ │  (panic guard, deadline
//!              └─ connection handler ──┘  bounded   └─  watchdog)   │
//!                     ▲      │ cache probe (hit → reply now)        │
//!                     │      └────────────── ResultCache ◀── put ───┘
//! ```
//!
//! * **Bounded admission.** Requests funnel through a
//!   [`std::sync::mpsc::sync_channel`] of [`ServiceConfig::queue_capacity`]
//!   slots. When the queue is full the daemon replies immediately with a
//!   structured `overloaded` error carrying `retry_after_ms` — explicit
//!   back-pressure, never an unbounded buffer. Memory is bounded by
//!   construction: ≤ `max_connections` handler threads, each with at most
//!   one in-flight request, plus ≤ `queue_capacity` queued jobs.
//! * **Graceful degradation.** A malformed frame fails that one request
//!   (the connection and daemon keep serving); a panicking simulation is
//!   contained by the [`ParallelRunner`] panic guard and fails only its
//!   own request; a request that exceeds its cycle deadline gets a
//!   structured `deadline_exceeded` error from the watchdog ceiling.
//! * **Crash-safe result cache.** Completed results are stored in a
//!   [`ResultCache`] keyed by [`crate::parallel::Job::cache_key`] —
//!   content-addressed, so the same experiment hits across restarts and
//!   processes. Cache hits are byte-identical to a fresh simulation
//!   because response payloads are *canonical*: `host_wall_ns` — a host
//!   property, excluded from [`spade_core::RunReport`] equality — is
//!   zeroed before rendering.
//! * **Cheap hits.** Keys are derived from a per-graph digest table
//!   (`KeyDigests`), so a request on a graph the daemon has seen probes
//!   the cache without generating the graph; only a miss prepares its
//!   workload and job.
//! * **Graceful shutdown.** SIGTERM/SIGINT (see
//!   [`install_termination_handler`]) or an in-band `shutdown` request
//!   stops the accept loop, drains in-flight jobs and returns a
//!   [`ServiceSummary`]. Every stored entry is already durable, so the
//!   drain writes nothing to the cache.
//!
//! # Protocol
//!
//! Requests are JSON objects with a `cmd` field; an optional `id`
//! (string or integer) is echoed on every reply to a frame that parses
//! as JSON. One renderer writes every reply as
//! `{"ok",["cmd"],["id"],…,["result"]}`: a job's success is
//! `{"ok":true,"cmd":...,"cached":...,"key":...,"result":{...}}` with the
//! result bytes spliced last, a failure
//! `{"ok":false,...,"error":{"kind":...,"message":...}}` with
//! `retry_after_ms` on `overloaded`. Error kinds: `bad_request`,
//! `overloaded`, `shutting_down`, `deadline_exceeded`, `sim_failed`,
//! `internal`. DESIGN.md documents the full matrix.
//!
//! Protocol v2 adds the observability and dataset surface:
//!
//! * `metrics` — a [`MetricsSnapshot`] of the daemon's registry
//!   (requests by kind/outcome, queue/worker gauges, cache counters,
//!   latency histograms), answered on the connection thread.
//! * `query` — enumerate/filter the cached entries as a dataset
//!   (benchmark, kernel, kind, k, pes, cycle bounds). Served from an
//!   in-memory catalog that bind builds by decoding every entry and the
//!   workers extend as they store.
//! * `trace` — run (or cache-serve) one job with event tracing on and
//!   stream the Chrome-trace JSON back in the result, byte-identical
//!   to what `spade-cli trace` writes locally.
//!
//! Protocol v3 adds sweep fan-out and server-side aggregation:
//!
//! * `batch` — one request carrying many `run`-shaped jobs (an explicit
//!   `jobs` array, or a `sweep` cross-product template over benchmarks ×
//!   kernels × k × pes × plans). Every job is admitted by the one
//!   routine a standalone request goes through (a standalone request is
//!   a one-slot batch): it probes the cache individually, fails
//!   individually, and — when the queue fills mid-batch — is rejected
//!   individually with `overloaded` + `retry_after_ms` while the jobs
//!   that fit keep running. The reply lists per-job payloads in job
//!   order, each byte-identical to the equivalent standalone `run`.
//! * `query` grows `group_by` (`benchmark`/`kernel`/`pes`): the daemon
//!   folds the filtered catalog into per-group min/max/mean cycles and
//!   a best-plan projection, so "best plan per matrix" is one request.
//! * `retry_after_ms` is no longer a constant: the hint scales with
//!   queue occupancy and the observed queue-wait histogram (see
//!   [`scaled_retry_after_ms`]), so a saturated daemon tells clients to
//!   back off longer.
//!
//! # Observability is pure
//!
//! Metrics are relaxed atomics, log spans (`--log-json`) go to
//! stderr, and neither feeds back into a simulation: every `RunReport`,
//! telemetry series and trace byte is identical with observability on
//! or off. The robustness suite pins this.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use spade_core::advisor::PlanRanker;
use spade_matrix::generators::{Benchmark, Scale};
use spade_sim::json::MAX_FRAME_BYTES;
use spade_sim::{Cycle, FrameError, FrameReader, JsonValue};

use crate::cache::{CacheStats, ResultCache};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::model::CostModel;
use crate::parallel::{self, MatrixDigest, ParallelRunner};
use crate::request::{
    self, field_bool, field_str, field_u64, Failed, Prepared, RunRequest, Target, Workloads,
};

// The result renderers live in the request core; the benchmark crate and
// the robustness suite name them at these paths.
pub use crate::request::{canonical_report, plan_json, trace_document};

/// Wire-protocol version, reported by `ping` and `status`. Version 2
/// added the `metrics`, `query` and `trace` requests; version 3 added
/// `batch` and the `query` `group_by` aggregations; version 4 adds the
/// `advise` request (plan selection, answered on the connection thread
/// like `metrics` — it never occupies a simulation worker). Earlier
/// requests are a strict subset, so v1–v3 clients keep working
/// unchanged.
pub const PROTOCOL_VERSION: u32 = 4;

/// Default cap on entries a single `query` response returns. Keeps a
/// response line comfortably under the default client frame limit even
/// for a cache holding thousands of sweep results; `limit` in the
/// request overrides it.
pub const DEFAULT_QUERY_LIMIT: usize = 500;

/// Upper bound on jobs one `batch` request may carry (explicit list or
/// expanded sweep template). Bounds the per-connection reply buffer the
/// way `queue_capacity` bounds admitted work.
pub const MAX_BATCH_JOBS: usize = 256;

/// Ceiling on the load-scaled `retry_after_ms` hint.
pub const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// Longest the accept loop waits for a connection before re-checking the
/// shutdown flag. A connection wakes the loop at once; this bounds how
/// long SIGTERM or an in-band `shutdown` waits for the loop to notice.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The back-pressure hint, scaled from load: `base` (the configured
/// [`ServiceConfig::retry_after_ms`]) when the queue is empty, growing
/// linearly to `5 * base` at full occupancy, plus the mean observed
/// queue wait — a saturated daemon whose jobs wait seconds tells
/// clients to come back in seconds, not in the idle-tuned constant.
/// Monotone in both `queue_depth` and `mean_queue_wait_us`; capped at
/// [`MAX_RETRY_AFTER_MS`].
#[must_use]
pub fn scaled_retry_after_ms(
    base: u64,
    queue_depth: usize,
    queue_capacity: usize,
    mean_queue_wait_us: u64,
) -> u64 {
    let cap = queue_capacity.max(1) as u64;
    let depth = (queue_depth as u64).min(cap);
    let occupancy_scaled = base.saturating_add(base.saturating_mul(4).saturating_mul(depth) / cap);
    occupancy_scaled
        .saturating_add(mean_queue_wait_us / 1_000)
        .min(MAX_RETRY_AFTER_MS)
}

/// How the daemon is shaped: queue depth, worker count, deadlines,
/// cache location. `Default` is sized for an interactive host.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation worker threads (defaults to [`parallel::num_threads`]).
    pub workers: usize,
    /// Admission-queue slots; a full queue rejects with `overloaded`.
    pub queue_capacity: usize,
    /// Maximum concurrent client connections; excess connections get one
    /// `overloaded` reply and are closed.
    pub max_connections: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_cycles`, riding the watchdog cycle ceiling. `None`
    /// leaves such requests unbounded.
    pub default_deadline_cycles: Option<Cycle>,
    /// How long a connection read blocks before re-checking for
    /// shutdown; bounds drain latency, not connection lifetime.
    pub read_timeout: Duration,
    /// Per-frame byte cap (a line longer than this fails the request).
    pub max_frame_bytes: usize,
    /// Base `retry_after_ms` hint carried by `overloaded` rejections —
    /// the wire value scales up with queue occupancy and observed queue
    /// wait (see [`scaled_retry_after_ms`]); this is the idle floor.
    pub retry_after_ms: u64,
    /// Result-cache directory; `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Fault injection: hold each admitted job for this long before
    /// executing it. Lets the robustness suite create deterministic
    /// back-pressure with fast jobs; `None` (the default) in production.
    pub worker_delay: Option<Duration>,
    /// Emit one JSON log line per request-lifecycle event to stderr
    /// (admission → queue → worker → cache → reply), each carrying the
    /// request id (`serve --log-json`; off by default). Logging is pure
    /// observation — response bytes are identical either way.
    pub log_json: bool,
    /// Trained cost-model file ([`crate::model::CostModel::save`]
    /// format) backing the `advise` request's model tier. `None` — and
    /// any file that fails to load or validate — falls back to the
    /// structural heuristic: a missing or corrupt model degrades advice
    /// quality, never availability.
    pub model_path: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: parallel::num_threads(),
            queue_capacity: 32,
            max_connections: 32,
            // Orders of magnitude above any suite run (the full-scale
            // sweeps finish in millions of cycles): a safety ceiling, not
            // a tuning knob.
            default_deadline_cycles: Some(4_000_000_000),
            read_timeout: Duration::from_millis(500),
            max_frame_bytes: MAX_FRAME_BYTES,
            retry_after_ms: 100,
            cache_dir: None,
            worker_delay: None,
            log_json: false,
            model_path: None,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Service::run`]
/// after a graceful shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Requests answered successfully (cached or fresh).
    pub served_ok: u64,
    /// Requests that failed (bad input, deadline, simulation error).
    pub served_err: u64,
    /// Requests rejected with back-pressure because the queue was full.
    pub rejected_overload: u64,
    /// Frames that could not be parsed as a request.
    pub bad_frames: u64,
    /// Connections accepted over the lifetime.
    pub connections: u64,
    /// Result-cache statistics, when a cache was configured.
    pub cache: Option<CacheStats>,
    /// The full metrics registry at shutdown — lifetime request counts
    /// per kind/outcome and the latency histograms (queue wait,
    /// execution wall time, simulated cycles), so a drained daemon
    /// reports its per-phase latency breakdown, not just totals.
    pub metrics: MetricsSnapshot,
}

impl ServiceSummary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("served_ok", self.served_ok.into()),
            ("served_err", self.served_err.into()),
            ("rejected_overload", self.rejected_overload.into()),
            ("bad_frames", self.bad_frames.into()),
            ("connections", self.connections.into()),
            (
                "cache",
                match &self.cache {
                    Some(stats) => stats.to_json(),
                    None => JsonValue::Null,
                },
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// Shared daemon state: configuration, cache, counters, shutdown flag.
/// The queue and worker gauges and the back-pressure, framing and
/// connection counters live only in the metrics registry; `status`, the
/// drain summary and the retry hint read them there.
struct Inner {
    config: ServiceConfig,
    cache: Option<ResultCache>,
    /// Queryable catalog of what the cache holds (`Some` iff `cache`).
    dataset: Option<DatasetIndex>,
    /// Trained cost model for the `advise` request's model tier;
    /// `None` (cold or corrupt model file) falls back to the heuristic.
    model: Option<CostModel>,
    /// Cache-key digests of the graphs requests have named so far.
    digests: KeyDigests,
    metrics: ServiceMetrics,
    shutdown: AtomicBool,
    served_ok: AtomicU64,
    served_err: AtomicU64,
    /// Monotonic request-id source: every parsed frame gets the next id,
    /// threading one identity through its log span from admission to
    /// reply.
    next_rid: AtomicU64,
    started: Instant,
}

impl Inner {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || termination_signal_received()
    }

    /// Requests waiting in the admission queue.
    fn queue_depth(&self) -> usize {
        usize::try_from(self.metrics.queue_depth.get()).unwrap_or(0)
    }

    /// The current `retry_after_ms` hint: the configured base scaled by
    /// queue occupancy and the mean observed queue wait.
    fn retry_after_hint(&self) -> u64 {
        let wait = &self.metrics.queue_wait_us;
        let mean_wait_us = wait.sum().checked_div(wait.count()).unwrap_or(0);
        scaled_retry_after_ms(
            self.config.retry_after_ms,
            self.queue_depth(),
            self.config.queue_capacity,
            mean_wait_us,
        )
    }
}

/// One admitted request, queued for a worker.
struct WorkItem {
    /// Request id, threading the log span from admission to reply.
    rid: u64,
    /// Command name, for the worker's span events.
    cmd: &'static str,
    kind: WorkKind,
    /// Cache key to store the result under (`None`: don't persist).
    store_key: Option<String>,
    /// When the item entered the queue — the queue-wait histogram
    /// measures from here to worker pickup.
    enqueued: Instant,
    reply: SyncSender<Result<String, Failed>>,
}

enum WorkKind {
    /// A `run`, `trace` or `search` (or one `batch` slot), prepared.
    Job(Prepared),
    /// Filter the cache catalog. Query rides the same admission queue
    /// as simulations — it holds the catalog lock and renders up to
    /// `limit` entries, so it gets the same back-pressure contract.
    Query { filter: QueryFilter },
}

/// The daemon: bind, then [`Service::run`] until shutdown.
pub struct Service {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Service {
    /// Binds the service (use port `0` to let the OS pick) and opens the
    /// result cache when one is configured.
    ///
    /// # Errors
    ///
    /// Fails if the address can't be bound or the cache directory can't
    /// be created.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let cache = match &config.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let dataset = cache.as_ref().map(DatasetIndex::load);
        // A model that fails to load is a warning, not a bind failure:
        // the advise tiers below the model keep the request available.
        let model = config
            .model_path
            .as_ref()
            .and_then(|path| match CostModel::load(path) {
                Ok(m) => Some(m),
                Err(e) => {
                    eprintln!(
                        "spade-serve: cost model {} unusable ({e}); \
                         advise falls back to the heuristic",
                        path.display()
                    );
                    None
                }
            });
        Ok(Service {
            listener,
            inner: Arc::new(Inner {
                config,
                cache,
                dataset,
                model,
                digests: KeyDigests::default(),
                metrics: ServiceMetrics::new(),
                shutdown: AtomicBool::new(false),
                served_ok: AtomicU64::new(0),
                served_err: AtomicU64::new(0),
                next_rid: AtomicU64::new(0),
                started: Instant::now(),
            }),
        })
    }

    /// The bound address (useful with port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown is requested (in-band `shutdown`, or
    /// SIGTERM/SIGINT after [`install_termination_handler`]), then drains
    /// in-flight work and returns the lifetime summary.
    ///
    /// # Errors
    ///
    /// Fails only on listener/worker setup; per-request failures are
    /// answered in-protocol and never abort the daemon.
    pub fn run(self) -> io::Result<ServiceSummary> {
        let inner = self.inner;
        self.listener.set_nonblocking(true)?;
        let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(inner.config.queue_capacity);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let mut workers = Vec::new();
        for i in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            let rx = Arc::clone(&work_rx);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("spade-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))?,
            );
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !inner.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    inner.metrics.connections.inc();
                    if handlers.len() >= inner.config.max_connections {
                        refuse_connection(&inner, stream);
                        continue;
                    }
                    let inner = Arc::clone(&inner);
                    let tx = work_tx.clone();
                    let h = std::thread::Builder::new()
                        .name("spade-serve-conn".into())
                        .spawn(move || handle_connection(&inner, &tx, stream))?;
                    handlers.push(h);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, ACCEPT_POLL);
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        // Drain: handlers notice the shutdown flag within one read
        // timeout and close their connections (after answering anything
        // already in flight); then the queue sender drops and the workers
        // finish whatever was admitted and exit.
        for h in handlers {
            let _ = h.join();
        }
        drop(work_tx);
        for w in workers {
            let _ = w.join();
        }
        let m = &inner.metrics;
        Ok(ServiceSummary {
            served_ok: inner.served_ok.load(Ordering::Relaxed),
            served_err: inner.served_err.load(Ordering::Relaxed),
            rejected_overload: m.rejected_overload.get(),
            bad_frames: m.bad_frames.get(),
            connections: m.connections.get(),
            cache: inner.cache.as_ref().map(ResultCache::stats),
            metrics: metrics_snapshot(&inner),
        })
    }
}

/// Over-capacity connections get one structured rejection, then close —
/// the same back-pressure contract as a full queue.
fn refuse_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    inner.metrics.rejected_overload.inc();
    let refusal = Outcome::Failed {
        kind: "overloaded",
        message: "connection limit reached".into(),
        retry_after_ms: Some(inner.retry_after_hint()),
    };
    let _ = stream.write_all(refusal.render(Head::Request(None, None)).as_bytes());
    let _ = stream.write_all(b"\n");
}

/// One connection: read frames, answer each, until EOF / fatal frame
/// error / shutdown. Per-request failures answer in-protocol and keep
/// the connection; only sync-destroying conditions (oversized frame,
/// mid-frame EOF, socket errors) close it.
fn handle_connection(inner: &Arc<Inner>, work_tx: &SyncSender<WorkItem>, stream: TcpStream) {
    // Accepted sockets can inherit the listener's non-blocking mode on
    // some platforms; force blocking-with-timeout explicitly.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut frames = FrameReader::with_max_frame(stream, inner.config.max_frame_bytes);
    loop {
        if inner.shutting_down() {
            let draining = Outcome::failed("shutting_down", "daemon is draining");
            let _ = respond(&mut writer, &draining.render(Head::Request(None, None)));
            return;
        }
        match frames.next_frame() {
            Ok(Some(frame)) => {
                if frame.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                if !process_frame(inner, work_tx, &mut writer, &frame) {
                    return;
                }
            }
            Ok(None) => return, // clean EOF
            Err(FrameError::TooLong { limit }) => {
                // The rest of the oversized line is unread: framing is
                // lost, so answer once and drop the connection.
                inner.metrics.bad_frames.inc();
                let too_long =
                    Outcome::failed("bad_request", format!("frame exceeds {limit} bytes"));
                let _ = respond(&mut writer, &too_long.render(Head::Request(None, None)));
                return;
            }
            Err(FrameError::Truncated { .. }) => {
                // Client died mid-line; nobody is listening for a reply.
                inner.metrics.bad_frames.inc();
                return;
            }
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle tick: loop to re-check the shutdown flag.
                continue;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

/// Handles one well-framed request line. Returns `false` when the
/// connection should close (write failure).
fn process_frame(
    inner: &Arc<Inner>,
    work_tx: &SyncSender<WorkItem>,
    writer: &mut TcpStream,
    frame: &[u8],
) -> bool {
    let rid = inner.next_rid.fetch_add(1, Ordering::Relaxed) + 1;
    let received = Instant::now();
    let (id, parsed) = parse_request(frame, inner.config.default_deadline_cycles, &inner.digests);
    let request = match parsed {
        Ok(request) => request,
        Err(message) => {
            inner.metrics.bad_frames.inc();
            log_event(
                inner,
                rid,
                "bad_frame",
                &[("message", message.as_str().into())],
            );
            let reply = Outcome::failed("bad_request", message);
            return respond(writer, &reply.render(Head::Request(None, id.as_ref())));
        }
    };
    let cmd = request.cmd();
    log_event(inner, rid, "request", &[("cmd", cmd.into())]);
    let protocol = || vec![("protocol", JsonValue::from(PROTOCOL_VERSION))];
    let body: Body = match request {
        Request::Ping => (true, protocol(), None),
        Request::Status => (true, status_fields(inner), None),
        // Answered on the connection thread, like status: a scrape must
        // work even when every worker is busy.
        Request::Metrics => (
            true,
            protocol(),
            Some(metrics_snapshot(inner).to_json().render()),
        ),
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            (true, vec![("draining", true.into())], None)
        }
        // A standalone request is admitted and settled as a one-slot
        // batch.
        Request::Work(slot) => {
            let admitted = admit(inner, work_tx, rid, None, slot, &mut Workloads::new());
            settle(inner, admitted).body()
        }
        Request::Batch(slots) => (
            true,
            Vec::new(),
            Some(batch_result(inner, work_tx, rid, slots)),
        ),
        // Plan advice never occupies a simulation worker: it is answered
        // here with the model loaded at bind time, so it stays available
        // when every worker is busy.
        Request::Advise(target) => {
            let ranker = inner.model.as_ref().map(|m| m as &dyn PlanRanker);
            match request::advise(&target, ranker) {
                Ok(advised) => {
                    inner
                        .metrics
                        .count_advise(advised.source, advised.latency_us);
                    inner.served_ok.fetch_add(1, Ordering::Relaxed);
                    (true, protocol(), Some(advised.to_json(&target).render()))
                }
                Err(message) => {
                    inner.served_err.fetch_add(1, Ordering::Relaxed);
                    Outcome::failed("sim_failed", message).body()
                }
            }
        }
    };
    let ok = body.0;
    inner.metrics.count_request(cmd, ok);
    log_event(
        inner,
        rid,
        "reply",
        &[
            ("cmd", cmd.into()),
            ("ok", ok.into()),
            ("total_us", (received.elapsed().as_micros() as u64).into()),
        ],
    );
    respond(
        writer,
        &envelope(Head::Request(Some(cmd), id.as_ref()), body),
    )
}

fn respond(writer: &mut TcpStream, line: &str) -> bool {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
}

/// The `status` reply's members: live gauges and lifetime counters.
fn status_fields(inner: &Inner) -> Vec<(&'static str, JsonValue)> {
    let m = &inner.metrics;
    let served = |count: &AtomicU64| JsonValue::from(count.load(Ordering::Relaxed));
    let cache = match &inner.cache {
        Some(cache) => {
            let mut stats = cache.stats().to_json();
            if let JsonValue::Object(fields) = &mut stats {
                fields.push(("entries".into(), cache.len().into()));
            }
            stats
        }
        None => JsonValue::Null,
    };
    vec![
        ("protocol", PROTOCOL_VERSION.into()),
        (
            "uptime_ms",
            (inner.started.elapsed().as_millis() as u64).into(),
        ),
        ("queue_depth", inner.queue_depth().into()),
        ("queue_capacity", inner.config.queue_capacity.into()),
        ("in_flight", m.in_flight.get().into()),
        ("workers", inner.config.workers.into()),
        ("served_ok", served(&inner.served_ok)),
        ("served_err", served(&inner.served_err)),
        ("rejected_overload", m.rejected_overload.get().into()),
        ("bad_frames", m.bad_frames.get().into()),
        ("connections", m.connections.get().into()),
        ("cache", cache),
        ("shutting_down", inner.shutting_down().into()),
    ]
}

// ---------------------------------------------------------------------------
// Admission and replies: one path for a standalone request and every
// batch slot
// ---------------------------------------------------------------------------

/// One unit of admission — a standalone `run`/`trace`/`search`/`query`
/// or one `batch` job — with the cache key it is probed under (`None`:
/// `no_cache`, or a query). The key comes from the graph's digest, so a
/// hit prepares nothing.
struct Slot {
    work: Work,
    key: Option<String>,
}

impl Slot {
    /// A job's slot, keyed unless `doc` sets `no_cache`.
    fn job(job: request::Request, doc: &JsonValue, digests: &KeyDigests) -> Result<Slot, String> {
        let no_cache = field_bool(doc, "no_cache", false)?;
        Ok(Slot {
            key: (!no_cache).then(|| job.cache_key(&digests.digest(job.target().graph()))),
            work: Work::Job(job),
        })
    }
}

/// A slot after [`admit`]: answered on the connection thread (a cache
/// hit or a rejection), or queued with its worker's reply to come.
enum Admitted {
    Answered(Outcome),
    Queued {
        reply: Receiver<Result<String, Failed>>,
        key: Option<String>,
    },
}

/// How a slot ended.
enum Outcome {
    /// The result bytes, from the cache (`cached`) or a worker, and the
    /// key they are stored under.
    Served {
        cached: bool,
        key: Option<String>,
        result: String,
    },
    /// A protocol error; `overloaded` carries the retry hint.
    Failed {
        kind: &'static str,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

impl Outcome {
    fn failed(kind: &'static str, message: impl Into<String>) -> Self {
        Outcome::Failed {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn body(self) -> Body {
        match self {
            Outcome::Served {
                cached,
                key,
                result,
            } => {
                let mut fields = vec![("cached", cached.into())];
                fields.extend(key.map(|key| ("key", key.into())));
                (true, fields, Some(result))
            }
            Outcome::Failed {
                kind,
                message,
                retry_after_ms,
            } => {
                let error = JsonValue::object([("kind", kind.into()), ("message", message.into())]);
                let mut fields = vec![("error", error)];
                fields.extend(retry_after_ms.map(|ms| ("retry_after_ms", ms.into())));
                (false, fields, None)
            }
        }
    }

    fn render(self, head: Head<'_>) -> String {
        envelope(head, self.body())
    }
}

/// Admits one slot. The cache probe runs on the connection thread, so a
/// hit takes no queue slot and prepares nothing. A miss prepares its
/// jobs (sharing `workloads` with the rest of its batch) and is offered
/// to the bounded queue: a full queue answers `overloaded` with the
/// load-scaled retry hint, a closed one `shutting_down`. A batch slot's
/// `index` rides its span events, and its worker runs it as `batch`.
fn admit(
    inner: &Arc<Inner>,
    work_tx: &SyncSender<WorkItem>,
    rid: u64,
    index: Option<usize>,
    slot: Slot,
    workloads: &mut Workloads,
) -> Admitted {
    let log = |event: &str, field: (&str, JsonValue)| {
        let mut fields = Vec::from_iter(index.map(|i| ("index", i.into())));
        fields.push(field);
        log_event(inner, rid, event, &fields);
    };
    let Slot { work, key } = slot;
    if let (Some(cache), Some(k)) = (&inner.cache, key.as_deref()) {
        if let Some(result) = cache.get(k).and_then(|bytes| String::from_utf8(bytes).ok()) {
            inner.served_ok.fetch_add(1, Ordering::Relaxed);
            log("cache_hit", ("key", k.into()));
            return Admitted::Answered(Outcome::Served {
                cached: true,
                key,
                result,
            });
        }
    }
    let (reply_tx, reply) = mpsc::sync_channel(1);
    let item = WorkItem {
        rid,
        cmd: index.map_or(work.cmd(), |_| "batch"),
        kind: work.prepare(workloads),
        store_key: key.clone(),
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    // The queue slot is counted *before* try_send: the worker may pull
    // the item (and decrement) the instant the send lands, so counting
    // afterwards could transiently drive the depth below zero.
    let depth = inner.metrics.queue_depth.add(1);
    match work_tx.try_send(item) {
        Ok(()) => {
            log("enqueue", ("depth", depth.into()));
            Admitted::Queued { reply, key }
        }
        Err(refused) => {
            inner.metrics.queue_depth.add(-1);
            Admitted::Answered(match refused {
                TrySendError::Full(_) => {
                    inner.metrics.rejected_overload.inc();
                    Outcome::Failed {
                        kind: "overloaded",
                        message: format!(
                            "admission queue is full ({} slots)",
                            inner.config.queue_capacity
                        ),
                        retry_after_ms: Some(inner.retry_after_hint()),
                    }
                }
                TrySendError::Disconnected(_) => {
                    Outcome::failed("shutting_down", "daemon is draining")
                }
            })
        }
    }
}

/// Settles an admitted slot: a queued slot waits for its worker's reply,
/// which counts as `served_ok`, or as `served_err` plus a deadline kill
/// when the watchdog ceiling tripped. A slot answered at admission was
/// counted there.
fn settle(inner: &Inner, admitted: Admitted) -> Outcome {
    let (reply, key) = match admitted {
        Admitted::Answered(outcome) => return outcome,
        Admitted::Queued { reply, key } => (reply, key),
    };
    let failed = match reply.recv() {
        Ok(Ok(result)) => {
            inner.served_ok.fetch_add(1, Ordering::Relaxed);
            return Outcome::Served {
                cached: false,
                key,
                result,
            };
        }
        Ok(Err(failed)) => failed,
        Err(_) => Failed {
            kind: "internal",
            message: "worker dropped the request".into(),
        },
    };
    inner.served_err.fetch_add(1, Ordering::Relaxed);
    if failed.kind == "deadline_exceeded" {
        inner.metrics.deadline_kills.inc();
    }
    Outcome::failed(failed.kind, failed.message)
}

/// The result of one `batch` request: every slot is admitted in job
/// order — a malformed spec is answered `bad_request` in its own slot —
/// and the admitted slots are settled in the same order. Admission is
/// per slot, so when the queue fills mid-batch the slots that fit keep
/// running and only the rest are rejected.
fn batch_result(
    inner: &Arc<Inner>,
    work_tx: &SyncSender<WorkItem>,
    rid: u64,
    slots: Vec<Result<Slot, String>>,
) -> String {
    let total = slots.len();
    log_event(inner, rid, "batch", &[("jobs", total.into())]);
    let mut workloads = Workloads::new();
    let admitted: Vec<Admitted> = slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| match slot {
            Ok(slot) => admit(inner, work_tx, rid, Some(index), slot, &mut workloads),
            Err(message) => Admitted::Answered(Outcome::failed("bad_request", message)),
        })
        .collect();
    let mut counts: HashMap<&str, u64> = HashMap::new();
    let mut jobs = Vec::with_capacity(total);
    for (index, slot) in admitted.into_iter().enumerate() {
        let outcome = settle(inner, slot);
        let label = match &outcome {
            Outcome::Served { cached: true, .. } => "cached",
            Outcome::Served { .. } => "ok",
            Outcome::Failed {
                kind: "overloaded", ..
            } => "rejected",
            Outcome::Failed { .. } => "error",
        };
        inner.metrics.count_batch_job(label);
        *counts.entry(label).or_default() += 1;
        jobs.push(outcome.render(Head::Slot(index)));
    }
    let n = |label| counts.get(label).copied().unwrap_or(0);
    format!(
        "{{\"total\":{total},\"succeeded\":{},\"cached\":{},\"failed\":{},\
         \"rejected\":{},\"jobs\":[{}]}}",
        n("ok") + n("cached"),
        n("cached"),
        n("error"),
        n("rejected"),
        jobs.join(",")
    )
}

/// What leads a reply object: a request's `cmd` (once its frame parsed)
/// and `id` (when the frame carried one), or a batch slot's `index`.
#[derive(Clone, Copy)]
enum Head<'a> {
    Request(Option<&'a str>, Option<&'a JsonValue>),
    Slot(usize),
}

/// A reply after its head: whether it reports success, its members, and
/// the result bytes spliced last.
type Body = (bool, Vec<(&'static str, JsonValue)>, Option<String>);

/// Renders every reply the daemon writes, and every slot of a batch
/// reply: `{"ok",["cmd"],["id"],members…,["result"]}`, a batch slot
/// leading with its `index` instead of `cmd` and `id`. The result bytes
/// are spliced verbatim as the last member, so a cache hit serves exactly
/// the bytes a fresh run rendered and a client can slice the result from
/// the first `,"result":` to the closing brace.
fn envelope(head: Head<'_>, (ok, fields, result): Body) -> String {
    let mut members: Vec<(&str, JsonValue)> = Vec::with_capacity(fields.len() + 3);
    match head {
        Head::Slot(index) => members.extend([("index", index.into()), ("ok", ok.into())]),
        Head::Request(cmd, id) => {
            members.push(("ok", ok.into()));
            members.extend(cmd.map(|cmd| ("cmd", cmd.into())));
            members.extend(id.map(|id| ("id", id.clone())));
        }
    }
    members.extend(fields);
    let mut line = JsonValue::object(members).render();
    if let Some(result) = result {
        line.pop();
        line.push_str(",\"result\":");
        line.push_str(&result);
        line.push('}');
    }
    line
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

enum Request {
    Ping,
    Status,
    Metrics,
    Shutdown,
    /// A standalone `run`/`trace`/`search`/`query`.
    Work(Slot),
    /// A sweep: many `run`-shaped slots answered in one reply. Each is a
    /// parsed slot or the `bad_request` message its job spec earned — a
    /// malformed job fails only its own slot, in keeping with the
    /// per-job containment contract.
    Batch(Vec<Result<Slot, String>>),
    /// Millisecond plan selection, answered on the connection thread —
    /// never a simulation worker, so advice stays available under full
    /// load.
    Advise(Target),
}

impl Request {
    fn cmd(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::Work(slot) => slot.work.cmd(),
            Request::Batch(_) => "batch",
            Request::Advise(_) => "advise",
        }
    }
}

/// Parses one frame into its `id` and its request. The `id` — a string
/// or integer — is taken from any frame that is a JSON object, so even a
/// rejected request's reply echoes it. The request is parsed for its
/// envelope (`cmd`) and the daemon's own fields (`no_cache`, batch and
/// query shapes) here, its job fields in the request core — every reject
/// happens before any simulation work starts. Cache keys come from
/// `digests`, which learns each graph's digest the first time a request
/// names it.
fn parse_request(
    frame: &[u8],
    default_deadline: Option<Cycle>,
    digests: &KeyDigests,
) -> (Option<JsonValue>, Result<Request, String>) {
    let Ok(text) = std::str::from_utf8(frame) else {
        return (None, Err("frame is not UTF-8".into()));
    };
    let doc = match JsonValue::parse(text) {
        Ok(doc) => doc,
        Err(e) => return (None, Err(format!("frame is not valid JSON: {e}"))),
    };
    let id = match doc.get("id") {
        Some(id @ (JsonValue::Str(_) | JsonValue::UInt(_) | JsonValue::Int(_))) => Some(id.clone()),
        _ => None,
    };
    (id, parse_command(&doc, default_deadline, digests))
}

fn parse_command(
    doc: &JsonValue,
    default_deadline: Option<Cycle>,
    digests: &KeyDigests,
) -> Result<Request, String> {
    if doc.get("cmd").is_none() {
        return Err("request must be an object with a \"cmd\" field".into());
    }
    let cmd = doc
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or("\"cmd\" must be a string")?;
    Ok(match cmd {
        "ping" => Request::Ping,
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "query" => Request::Work(Slot {
            work: Work::Query(parse_query(doc)?),
            key: None,
        }),
        "batch" => Request::Batch(parse_batch(doc, default_deadline, digests)?),
        "advise" => Request::Advise(request::parse_target(doc)?),
        _ => Request::Work(Slot::job(
            request::parse(doc, default_deadline)?,
            doc,
            digests,
        )?),
    })
}

/// Cache-key digests of the graphs requests have named, one per
/// (benchmark, scale) — so at most one per pair of the two enums, with
/// no eviction to tune. A request on a known graph derives its key from
/// the digest without generating the matrix, which makes a cache hit
/// cost a key tail and a disk read. The table holds digests, not
/// workloads: the prepared operands of even the tiny graphs would cost
/// megabytes of resident memory, and only a miss needs them.
#[derive(Default)]
struct KeyDigests(Mutex<HashMap<(Benchmark, Scale), MatrixDigest>>);

impl KeyDigests {
    /// The named graph's digest, generating the matrix to record it on
    /// the graph's first sight only.
    fn digest(&self, (benchmark, scale): (Benchmark, Scale)) -> MatrixDigest {
        let table = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let known = table().get(&(benchmark, scale)).copied();
        known.unwrap_or_else(|| {
            // Generated outside the lock: a large graph's first sight
            // must not stall other connections' lookups.
            let digest = MatrixDigest::of(&benchmark.generate(scale));
            table().insert((benchmark, scale), digest);
            digest
        })
    }
}

/// A slot's work before its cache probe: [`Work::prepare`] turns it into
/// admitted work, and only a miss calls it.
enum Work {
    Job(request::Request),
    Query(QueryFilter),
}

impl Work {
    fn cmd(&self) -> &'static str {
        match self {
            Work::Job(job) => job.cmd(),
            Work::Query(_) => "query",
        }
    }

    fn prepare(self, workloads: &mut Workloads) -> WorkKind {
        match self {
            Work::Job(job) => WorkKind::Job(job.prepare(workloads)),
            Work::Query(filter) => WorkKind::Query { filter },
        }
    }
}

/// Fields a batch request may set once for every job (anything but the
/// envelope and the job list itself): per-job fields win, batch-level
/// fields fill the gaps.
fn merged_job_doc(job: &JsonValue, batch: &JsonValue) -> Result<JsonValue, String> {
    let JsonValue::Object(job_fields) = job else {
        return Err("each batch job must be an object".into());
    };
    let mut fields = job_fields.clone();
    if let JsonValue::Object(batch_fields) = batch {
        for (key, value) in batch_fields {
            if matches!(key.as_str(), "cmd" | "id" | "jobs" | "sweep") {
                continue;
            }
            if job.get(key).is_none() {
                fields.push((key.clone(), value.clone()));
            }
        }
    }
    Ok(JsonValue::Object(fields))
}

fn sweep_list<'a>(sweep: &'a JsonValue, key: &str) -> Result<Option<&'a [JsonValue]>, String> {
    match sweep.get(key) {
        None => Ok(None),
        Some(v) => {
            let items = v
                .as_array()
                .ok_or(format!("sweep \"{key}\" must be an array"))?;
            if items.is_empty() {
                return Err(format!("sweep \"{key}\" must not be empty"));
            }
            Ok(Some(items))
        }
    }
}

/// Expands a `sweep` template into per-job documents: the cross product
/// benchmarks × kernels × k × pes × plans, in exactly that nesting
/// order — the job order of the reply is a deterministic function of
/// the request.
fn expand_sweep(sweep: &JsonValue) -> Result<Vec<JsonValue>, String> {
    let benchmarks =
        sweep_list(sweep, "benchmarks")?.ok_or("sweep requires a \"benchmarks\" array")?;
    let default_kernels = [JsonValue::from("spmm")];
    let kernels = sweep_list(sweep, "kernels")?.unwrap_or(&default_kernels);
    let default_ks = [JsonValue::from(32u64)];
    let ks = sweep_list(sweep, "k")?.unwrap_or(&default_ks);
    let default_pes = [JsonValue::from(56u64)];
    let pes_list = sweep_list(sweep, "pes")?.unwrap_or(&default_pes);
    let default_plans = [JsonValue::object::<&str>([])];
    let plans = sweep_list(sweep, "plans")?.unwrap_or(&default_plans);
    let mut docs = Vec::new();
    for bench in benchmarks {
        for kernel in kernels {
            for k in ks {
                for pes in pes_list {
                    for plan in plans {
                        let JsonValue::Object(plan_fields) = plan else {
                            return Err("each sweep plan must be an object".into());
                        };
                        let mut fields: Vec<(String, JsonValue)> = vec![
                            ("benchmark".into(), bench.clone()),
                            ("kernel".into(), kernel.clone()),
                            ("k".into(), k.clone()),
                            ("pes".into(), pes.clone()),
                        ];
                        fields.extend(plan_fields.iter().cloned());
                        docs.push(JsonValue::Object(fields));
                    }
                }
            }
        }
    }
    Ok(docs)
}

/// Parses a `batch` request: an explicit `jobs` array or a `sweep`
/// template (exactly one of the two), every other top-level field acting
/// as a per-job default. Structural problems (no jobs, both forms, over
/// the cap) reject the request; a single malformed job spec only poisons
/// its own slot. Each job parses and keys like the standalone `run`, so
/// its cache key, deadline and rendered payload are byte-for-byte those
/// of the equivalent individual request.
fn parse_batch(
    doc: &JsonValue,
    default_deadline: Option<Cycle>,
    digests: &KeyDigests,
) -> Result<Vec<Result<Slot, String>>, String> {
    let job_docs = match (doc.get("jobs"), doc.get("sweep")) {
        (Some(_), Some(_)) => {
            return Err("\"jobs\" and \"sweep\" are mutually exclusive".into());
        }
        (None, None) => {
            return Err("batch requires a \"jobs\" array or a \"sweep\" template".into());
        }
        (Some(jobs), None) => {
            let items = jobs.as_array().ok_or("\"jobs\" must be an array")?;
            if items.is_empty() {
                return Err("\"jobs\" must not be empty".into());
            }
            items.to_vec()
        }
        (None, Some(sweep)) => expand_sweep(sweep)?,
    };
    if job_docs.len() > MAX_BATCH_JOBS {
        return Err(format!(
            "batch of {} jobs exceeds the service limit {MAX_BATCH_JOBS}",
            job_docs.len()
        ));
    }
    let parse_job = |job: &JsonValue| -> Result<Slot, String> {
        let merged = merged_job_doc(job, doc)?;
        let run = RunRequest::parse(&merged, default_deadline)?;
        Slot::job(request::Request::Run(run), &merged, digests)
    };
    Ok(job_docs.iter().map(parse_job).collect())
}

/// The catalog dimension a `query` aggregation groups on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKey {
    /// Per matrix (the wire accepts `"benchmark"` or `"matrix"`).
    Benchmark,
    Kernel,
    Pes,
}

impl GroupKey {
    /// The group label for one catalog row.
    fn of(self, m: &EntryMeta) -> String {
        match self {
            GroupKey::Benchmark => m.benchmark.clone(),
            GroupKey::Kernel => m.kernel.clone(),
            GroupKey::Pes => m.pes.to_string(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            GroupKey::Benchmark => "benchmark",
            GroupKey::Kernel => "kernel",
            GroupKey::Pes => "pes",
        }
    }
}

/// Filters a `query` request applies to the dataset catalog. Every
/// field is optional; an empty filter matches everything.
#[derive(Debug, Clone)]
struct QueryFilter {
    benchmark: Option<String>,
    kernel: Option<String>,
    kind: Option<String>,
    k: Option<u64>,
    pes: Option<u64>,
    min_cycles: Option<u64>,
    max_cycles: Option<u64>,
    limit: usize,
    /// `Some`: aggregate the matches into per-group projections instead
    /// of listing them (`limit` then caps the group list).
    group_by: Option<GroupKey>,
}

impl QueryFilter {
    fn matches(&self, m: &EntryMeta) -> bool {
        self.benchmark.as_deref().is_none_or(|b| b == m.benchmark)
            && self.kernel.as_deref().is_none_or(|kn| kn == m.kernel)
            && self.kind.as_deref().is_none_or(|kd| kd == m.kind)
            && self.k.is_none_or(|k| k == m.k)
            && self.pes.is_none_or(|p| p == m.pes)
            && self.min_cycles.is_none_or(|lo| m.cycles >= lo)
            && self.max_cycles.is_none_or(|hi| m.cycles <= hi)
    }
}

/// Validates a `query` request's filter fields — unknown benchmarks,
/// kernels and kinds are rejected here as `bad_request`, like every
/// other wire field.
fn parse_query(doc: &JsonValue) -> Result<QueryFilter, String> {
    let benchmark = match doc.get("benchmark") {
        None => None,
        Some(_) => Some(request::parse_benchmark(doc)?.short_name().to_string()),
    };
    let kernel = match doc.get("kernel") {
        None => None,
        Some(_) => Some(request::parse_kernel(doc)?.to_string().to_lowercase()),
    };
    let kind = match field_str(doc, "kind", "")? {
        "" => None,
        k @ ("run" | "search" | "trace") => Some(k.to_string()),
        other => return Err(format!("unknown entry kind {other:?}")),
    };
    // An explicit zero used to silently return no rows — ambiguous
    // enough (is it "no limit"?) that it is now rejected outright.
    // DESIGN.md §7.1 documents the choice.
    let limit = match field_u64(doc, "limit")? {
        Some(0) => {
            return Err(format!(
                "\"limit\": 0 would return no rows; omit the field for the default ({DEFAULT_QUERY_LIMIT}) or give a positive cap"
            ));
        }
        Some(n) => n as usize,
        None => DEFAULT_QUERY_LIMIT,
    };
    let group_by = match field_str(doc, "group_by", "")? {
        "" => None,
        "benchmark" | "matrix" => Some(GroupKey::Benchmark),
        "kernel" => Some(GroupKey::Kernel),
        "pes" => Some(GroupKey::Pes),
        other => {
            return Err(format!("unknown group_by {other:?} (benchmark|kernel|pes)"));
        }
    };
    Ok(QueryFilter {
        benchmark,
        kernel,
        kind,
        k: field_u64(doc, "k")?,
        pes: field_u64(doc, "pes")?,
        min_cycles: field_u64(doc, "min_cycles")?,
        max_cycles: field_u64(doc, "max_cycles")?,
        limit,
        group_by,
    })
}

// ---------------------------------------------------------------------------
// Workers: simulation, result rendering, cache stores
// ---------------------------------------------------------------------------

/// One worker: pull admitted requests, simulate inside the
/// [`ParallelRunner`] panic guard, persist successes, reply. Exits when
/// the admission queue closes (shutdown drain).
fn worker_loop(inner: &Arc<Inner>, rx: &Arc<Mutex<Receiver<WorkItem>>>) {
    loop {
        let item = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        let Ok(item) = item else { return };
        inner.metrics.queue_depth.add(-1);
        inner.metrics.in_flight.add(1);
        let queue_wait_us = item.enqueued.elapsed().as_micros() as u64;
        inner.metrics.queue_wait_us.observe(queue_wait_us);
        log_event(
            inner,
            item.rid,
            "execute",
            &[
                ("cmd", item.cmd.into()),
                ("queue_wait_us", queue_wait_us.into()),
            ],
        );
        if let Some(delay) = inner.config.worker_delay {
            std::thread::sleep(delay);
        }
        let exec_start = Instant::now();
        let outcome = execute_work(inner, &item.kind);
        let exec_us = exec_start.elapsed().as_micros() as u64;
        inner.metrics.exec_us.observe(exec_us);
        log_event(
            inner,
            item.rid,
            "executed",
            &[("ok", outcome.is_ok().into()), ("exec_us", exec_us.into())],
        );
        if let (Ok(result), Some(cache), Some(key)) =
            (&outcome, inner.cache.as_ref(), item.store_key.as_deref())
        {
            if let Err(e) = cache.put(key, result.as_bytes()) {
                // A failed store costs persistence, not the request.
                eprintln!("spade-serve: cache store for {key} failed: {e}");
            } else {
                log_event(inner, item.rid, "store", &[("key", key.into())]);
                if let Some(dataset) = &inner.dataset {
                    dataset.insert_payload(key, result);
                }
            }
        }
        // The gauge drops before the reply goes out: a `status` or
        // `metrics` request sent once the reply arrives must not count
        // the finished job as in flight.
        inner.metrics.in_flight.add(-1);
        // The handler may have given up (connection died); a dead
        // receiver just drops the result.
        let _ = item.reply.send(outcome);
    }
}

/// Runs one admitted item. A single-worker runner still wraps the jobs
/// in the panic guard with one retry — a crashing simulation fails this
/// request, never the worker thread.
fn execute_work(inner: &Arc<Inner>, kind: &WorkKind) -> Result<String, Failed> {
    match kind {
        WorkKind::Job(prepared) => {
            let executed = prepared.execute(&ParallelRunner::new(1))?;
            for &cycles in &executed.cycles {
                inner.metrics.sim_cycles.observe(cycles);
            }
            Ok(executed.render())
        }
        WorkKind::Query { filter } => match &inner.dataset {
            Some(dataset) => Ok(dataset.query(filter).render()),
            None => Err(Failed {
                kind: "bad_request",
                message: "daemon has no cache configured; nothing to query".to_string(),
            }),
        },
    }
}

// ---------------------------------------------------------------------------
// Dataset catalog: the cache as a queryable surface
// ---------------------------------------------------------------------------

/// What the `query` surface knows about one cached entry: enough to
/// filter and rank (benchmark, kernel, shape, plan, headline numbers)
/// without decoding the full payload per query.
#[derive(Debug, Clone)]
struct EntryMeta {
    key: String,
    /// `"run"`, `"search"` or `"trace"` — recovered from the key prefix
    /// (run keys are pure hex, so `s`/`t` prefixes are unambiguous).
    kind: &'static str,
    benchmark: String,
    /// Lower-case kernel name (`"spmm"` / `"sddmm"`).
    kernel: String,
    k: u64,
    pes: u64,
    /// The plan (for `search` entries: the best candidate's plan).
    plan: Option<JsonValue>,
    /// Simulated cycles (for `search` entries: the best candidate's).
    cycles: u64,
    dram_accesses: u64,
}

impl EntryMeta {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("key", self.key.as_str().into()),
            ("kind", self.kind.into()),
            ("benchmark", self.benchmark.as_str().into()),
            ("kernel", self.kernel.as_str().into()),
            ("k", self.k.into()),
            ("pes", self.pes.into()),
            ("plan", self.plan.clone().unwrap_or(JsonValue::Null)),
            ("cycles", self.cycles.into()),
            ("dram_accesses", self.dram_accesses.into()),
        ])
    }
}

/// Decodes one cached payload into its catalog row. Returns `None` for
/// payloads that don't carry the expected fields (a foreign or
/// hand-edited entry) — such entries still serve cache hits, they are
/// just invisible to `query`.
fn entry_meta_from_payload(key: &str, payload: &[u8]) -> Option<EntryMeta> {
    let text = std::str::from_utf8(payload).ok()?;
    let doc = JsonValue::parse(text).ok()?;
    let kind = if key.starts_with('s') {
        "search"
    } else if key.starts_with('t') {
        "trace"
    } else {
        "run"
    };
    let benchmark = doc.get("benchmark")?.as_str()?.to_string();
    let k = doc.get("k")?.as_u64()?;
    let pes = doc.get("pes")?.as_u64()?;
    if kind == "search" {
        // Candidates are sorted by cycles; the catalog carries the best.
        let best = doc.get("candidates")?.as_array()?.first()?;
        Some(EntryMeta {
            key: key.to_string(),
            kind,
            benchmark,
            kernel: "spmm".to_string(),
            k,
            pes,
            plan: best.get("plan").cloned(),
            cycles: best.get("cycles")?.as_u64()?,
            dram_accesses: best.get("dram_accesses")?.as_u64()?,
        })
    } else {
        let report = doc.get("report")?;
        Some(EntryMeta {
            key: key.to_string(),
            kind,
            benchmark,
            kernel: doc.get("kernel")?.as_str()?.to_lowercase(),
            k,
            pes,
            plan: doc.get("plan").cloned(),
            cycles: report.get("cycles")?.as_u64()?,
            dram_accesses: report.get("dram_accesses")?.as_u64()?,
        })
    }
}

/// In-memory catalog of the cache contents, backing the `query`
/// request. Built once at bind time by decoding every entry and kept
/// current by the workers as they store; it is never persisted, so the
/// entries on disk are the only state it derives from.
struct DatasetIndex {
    entries: Mutex<BTreeMap<String, EntryMeta>>,
}

impl DatasetIndex {
    /// Catalogs `cache` by decoding every entry's payload. An entry
    /// that fails its checks is quarantined (and counted) by the read,
    /// so it is never listed.
    fn load(cache: &ResultCache) -> DatasetIndex {
        let entries = cache
            .keys()
            .into_iter()
            .filter_map(|key| {
                let meta = entry_meta_from_payload(&key, &cache.peek(&key)?)?;
                Some((key, meta))
            })
            .collect();
        DatasetIndex {
            entries: Mutex::new(entries),
        }
    }

    /// Adds (or refreshes) the row for a just-stored payload.
    fn insert_payload(&self, key: &str, payload: &str) {
        if let Some(meta) = entry_meta_from_payload(key, payload.as_bytes()) {
            self.entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key.to_string(), meta);
        }
    }

    /// Answers one query: `{"total","matched","returned","entries"}`
    /// with matches sorted by (benchmark, kernel, cycles, key) — a
    /// deterministic order, so "best plan per matrix" is the first
    /// entry per benchmark group. With `group_by`, the matches are
    /// folded server-side instead (see [`DatasetIndex::aggregate`]).
    fn query(&self, filter: &QueryFilter) -> JsonValue {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut matched: Vec<&EntryMeta> = entries.values().filter(|m| filter.matches(m)).collect();
        matched.sort_by(|a, b| {
            (&a.benchmark, &a.kernel, a.cycles, &a.key).cmp(&(
                &b.benchmark,
                &b.kernel,
                b.cycles,
                &b.key,
            ))
        });
        if let Some(group_by) = filter.group_by {
            return Self::aggregate(entries.len(), &matched, group_by, filter.limit);
        }
        let shown: Vec<JsonValue> = matched
            .iter()
            .take(filter.limit)
            .map(|m| m.to_json())
            .collect();
        JsonValue::object([
            ("total", entries.len().into()),
            ("matched", matched.len().into()),
            ("returned", shown.len().into()),
            ("entries", JsonValue::Array(shown)),
        ])
    }

    /// Folds the (already filtered and sorted) matches into per-group
    /// projections: count, min/max/mean cycles, and the best entry —
    /// fewest cycles, key as the deterministic tie-break — whose plan is
    /// the group's best-plan answer. Groups come back sorted by label;
    /// `limit` caps how many are rendered.
    fn aggregate(
        total: usize,
        matched: &[&EntryMeta],
        group_by: GroupKey,
        limit: usize,
    ) -> JsonValue {
        let mut groups: BTreeMap<String, Vec<&EntryMeta>> = BTreeMap::new();
        for m in matched {
            groups.entry(group_by.of(m)).or_default().push(m);
        }
        let group_count = groups.len();
        let shown: Vec<JsonValue> = groups
            .into_iter()
            .take(limit)
            .map(|(label, members)| {
                let count = members.len() as u64;
                let min = members.iter().map(|m| m.cycles).min().unwrap_or(0);
                let max = members.iter().map(|m| m.cycles).max().unwrap_or(0);
                let sum: u64 = members.iter().map(|m| m.cycles).sum();
                let best = members
                    .iter()
                    .min_by(|a, b| (a.cycles, &a.key).cmp(&(b.cycles, &b.key)))
                    .expect("groups are never empty");
                JsonValue::object([
                    ("group", label.as_str().into()),
                    ("count", count.into()),
                    ("min_cycles", min.into()),
                    ("max_cycles", max.into()),
                    ("mean_cycles", (sum as f64 / count as f64).into()),
                    ("best", best.to_json()),
                ])
            })
            .collect();
        JsonValue::object([
            ("total", total.into()),
            ("matched", matched.len().into()),
            ("group_by", group_by.name().into()),
            ("groups_matched", group_count.into()),
            ("returned", shown.len().into()),
            ("groups", JsonValue::Array(shown)),
        ])
    }

    /// The catalog rows, in key order: the `entries` of a dataset
    /// export.
    fn to_json(&self) -> JsonValue {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        JsonValue::Array(entries.values().map(EntryMeta::to_json).collect())
    }
}

/// Exports the cache catalog as one JSON document — the dataset a cost
/// model is trained from (`spade-cli dataset export` / `model train`).
/// Loads the catalog exactly the way the daemon does at bind time
/// (`DatasetIndex::load`): every entry payload on disk is decoded, and
/// entries that fail their checksum are quarantined and *skipped* — the
/// export reports how many in `skipped_quarantined` (with a stderr
/// warning) instead of failing.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::NotFound`] when `cache_dir` is not an
/// existing directory (an export never creates one, so a mistyped path
/// is an error, not an empty dataset), or when it cannot be listed.
pub fn export_dataset(cache_dir: &Path) -> io::Result<JsonValue> {
    if !cache_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no cache directory at {}", cache_dir.display()),
        ));
    }
    let cache = ResultCache::open(cache_dir)?;
    let dataset = DatasetIndex::load(&cache);
    let entries = dataset.to_json();
    let skipped = cache.stats().quarantined;
    if skipped > 0 {
        eprintln!(
            "spade-dataset: skipped {skipped} quarantined entr{} during export",
            if skipped == 1 { "y" } else { "ies" }
        );
    }
    let count = entries.as_array().map_or(0, <[JsonValue]>::len);
    Ok(JsonValue::object([
        ("dataset_version", 1u64.into()),
        ("total", count.into()),
        ("skipped_quarantined", skipped.into()),
        ("entries", entries),
    ]))
}

// ---------------------------------------------------------------------------
// Observability: the registry snapshot and log spans
// ---------------------------------------------------------------------------

/// The registry with the result cache's own counters mirrored in; every
/// other instrument is updated where its event happens.
fn metrics_snapshot(inner: &Inner) -> MetricsSnapshot {
    if let Some(cache) = &inner.cache {
        inner.metrics.observe_cache(&cache.stats());
    }
    inner.metrics.snapshot()
}

/// One structured span event as a single JSON line on stderr, gated on
/// [`ServiceConfig::log_json`]. Fields: `log:"spade-serve"`, `t_us`
/// (microseconds since daemon start), `rid`, `event`, plus the
/// event-specific extras. stderr only — never the protocol stream,
/// never simulation state — so logging on or off cannot change a
/// response byte.
fn log_event(inner: &Inner, rid: u64, event: &str, extra: &[(&str, JsonValue)]) {
    if !inner.config.log_json {
        return;
    }
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("log", "spade-serve".into()),
        ("t_us", (inner.started.elapsed().as_micros() as u64).into()),
        ("rid", rid.into()),
        ("event", event.into()),
    ];
    fields.extend_from_slice(extra);
    eprintln!("{}", JsonValue::object(fields).render());
}

// ---------------------------------------------------------------------------
// Termination signals
// ---------------------------------------------------------------------------

static TERMINATION_SIGNAL: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT has been received since
/// [`install_termination_handler`] ran.
pub fn termination_signal_received() -> bool {
    TERMINATION_SIGNAL.load(Ordering::SeqCst)
}

/// Routes SIGTERM and SIGINT into a flag the accept loop polls, turning
/// `kill <pid>` / ctrl-c into the same graceful drain as an in-band
/// `shutdown` request. The handler only stores an atomic — the minimum
/// an async-signal context allows. std already links libc on Unix, so
/// the declaration introduces no new dependency.
#[cfg(unix)]
pub fn install_termination_handler() {
    extern "C" fn on_signal(_signum: i32) {
        TERMINATION_SIGNAL.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off Unix: the in-band `shutdown` command still works.
#[cfg(not(unix))]
pub fn install_termination_handler() {}

/// Blocks until `listener` has a connection waiting or `timeout` passes,
/// through `poll(2)` — declared here like `signal(2)` above, since std
/// links libc on Unix already. Any early return (a signal, an error) is
/// harmless: the caller retries `accept` and re-checks the shutdown flag.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short};
    use std::os::unix::io::AsRawFd;
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    let mut entry = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `entry` is a valid `struct pollfd` (repr(C), libc layout)
    // that outlives the call, and `nfds` = 1 matches its length; poll only
    // writes its `revents`. The descriptor belongs to `listener`, which is
    // borrowed for the whole call, so it stays open.
    unsafe {
        poll(&mut entry, 1, timeout_ms);
    }
}

/// Off Unix the accept loop sleeps out the bound instead.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A minimal blocking client for the daemon protocol: one JSON line out,
/// one JSON line back. Used by `spade-cli client` and the robustness
/// tests; independent deployments only need a TCP socket and a JSON
/// library.
pub struct ServiceClient {
    writer: TcpStream,
    frames: FrameReader<TcpStream>,
}

impl ServiceClient {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &SocketAddr) -> io::Result<ServiceClient> {
        Self::connect_with_max_frame(addr, MAX_FRAME_BYTES)
    }

    /// Connects with a custom response-frame byte limit. `client trace`
    /// uses this: a Chrome-trace response is one line and can exceed the
    /// default limit that protects ordinary request/response traffic.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with_max_frame(
        addr: &SocketAddr,
        max_frame: usize,
    ) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(ServiceClient {
            writer,
            frames: FrameReader::with_max_frame(stream, max_frame),
        })
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or when the daemon closes the connection
    /// without answering.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Sends a JSON request document and reads one response line.
    ///
    /// # Errors
    ///
    /// See [`ServiceClient::request_line`].
    pub fn request(&mut self, doc: &JsonValue) -> io::Result<String> {
        self.request_line(&doc.render())
    }

    /// Reads the next response line without sending anything (for tests
    /// that write raw bytes through a separate socket handle).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or EOF before a full line arrived.
    pub fn read_response(&mut self) -> io::Result<String> {
        match self.frames.next_frame() {
            Ok(Some(frame)) => String::from_utf8(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response")),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Err(FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Job;
    use crate::suite::Workload;
    use spade_core::SystemConfig;

    /// Wire plan fields: the base plan, a small-row-panel victim plan, an
    /// explicit full-width column panel, and barriers.
    const PLANS: [&str; 4] = [
        "",
        r#","rp":4,"rmatrix":"victim""#,
        r#","cp":"all""#,
        r#","barriers":true"#,
    ];

    #[test]
    fn digest_keys_equal_job_keys() {
        let deadline = ServiceConfig::default().default_deadline_cycles;
        let config = Arc::new(SystemConfig::scaled(56));
        for bench in Benchmark::ALL {
            let w = Arc::new(Workload::prepare(bench, Scale::Tiny, 32));
            // The graph's first request computes its digest; every later
            // one reads it from the table.
            let digests = KeyDigests::default();
            let mut workloads = Workloads::new();
            let docs = ["spmm", "sddmm"].into_iter().flat_map(|kernel| {
                PLANS.map(|plan| {
                    JsonValue::parse(&format!(
                        r#"{{"cmd":"run","benchmark":"{}","kernel":"{kernel}"{plan}}}"#,
                        bench.short_name()
                    ))
                    .expect("request document")
                })
            });
            for doc in docs {
                let job = Job::new(
                    &w,
                    &config,
                    request::parse_kernel(&doc).expect("kernel"),
                    request::PlanKnobs::parse(&doc)
                        .expect("plan")
                        .plan(w.a.num_cols()),
                )
                .with_deadline_cycles(deadline);
                let want = job.cache_key();
                let run = RunRequest::parse(&doc, deadline).expect("request");
                let context = doc.render();
                let key = run.cache_key(&digests.digest(run.target.graph()));
                assert_eq!(key, want, "{context}");
                // The job a miss prepares names the same entry.
                assert_eq!(run.prepare(&mut workloads).cache_key(), want, "{context}");
            }
            assert_eq!(digests.0.lock().expect("digest table").len(), 1);
        }
    }
}
